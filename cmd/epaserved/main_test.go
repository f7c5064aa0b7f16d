package main

// Kill-restart harness: the test re-execs its own binary as a real
// epaserved process (EPASERVED_CHILD guards the entry point), storms it
// with submissions over real HTTP, SIGKILLs it mid-stampede, restarts it
// on the same journal directory, and then holds the durability contract
// to account: every accepted run must still exist (zero
// accepted-then-lost), every one must finish, and a run that was
// interrupted mid-execution must re-execute to a report byte-identical
// to a fresh run of the same spec.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"epajsrm/internal/service"
)

func TestMain(m *testing.M) {
	if os.Getenv("EPASERVED_CHILD") == "1" {
		ready := make(chan string, 1)
		go func() { fmt.Printf("ADDR %s\n", <-ready) }()
		os.Exit(run(os.Args[1:], os.Stderr, ready))
	}
	os.Exit(m.Run())
}

// syncBuffer guards the child's stderr: exec's pipe copier writes it
// concurrently with the test's reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// server is a child epaserved process under test control.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr *syncBuffer
}

// startServer re-execs the test binary as epaserved and waits for the
// bound address on its stdout.
func startServer(t *testing.T, journalDir string, extra ...string) *server {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-journal", journalDir}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EPASERVED_CHILD=1")
	stderr := &syncBuffer{}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // already-dead child is fine
		cmd.Wait()         //nolint:errcheck // exit state is the cleanup's problem
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
				addrCh <- a
				return
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &server{cmd: cmd, addr: addr, stderr: stderr}
	case <-time.After(15 * time.Second):
		t.Fatalf("child never reported its address; stderr:\n%s", stderr.String())
		return nil
	}
}

// accepted is one acknowledged submission: the 202 is the durability
// promise the harness later enforces.
type accepted struct {
	id   string
	spec service.Spec
}

func submit(client *http.Client, addr string, sp service.Spec) (string, int, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", 0, err
	}
	resp, err := client.Post("http://"+addr+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, nil
	}
	var info service.RunInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return "", resp.StatusCode, fmt.Errorf("bad 202 body %q: %w", b, err)
	}
	return info.ID, resp.StatusCode, nil
}

func getRun(client *http.Client, addr, id string) (service.RunInfo, int, error) {
	resp, err := client.Get("http://" + addr + "/runs/" + id)
	if err != nil {
		return service.RunInfo{}, 0, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return service.RunInfo{}, resp.StatusCode, nil
	}
	var info service.RunInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return service.RunInfo{}, resp.StatusCode, err
	}
	return info, resp.StatusCode, nil
}

func getReport(t *testing.T, client *http.Client, addr, id string) []byte {
	t.Helper()
	resp, err := client.Get("http://" + addr + "/runs/" + id + "/report")
	if err != nil {
		t.Fatalf("report %s: %v", id, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(b) == 0 {
		t.Fatalf("report %s: status %d, %d bytes — a complete run must serve its report", id, resp.StatusCode, len(b))
	}
	return b
}

func TestKillRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-restart harness")
	}
	dir := t.TempDir()
	client := &http.Client{Timeout: 10 * time.Second}
	srv1 := startServer(t, dir)

	// Stampede: four tenants submit as fast as the server accepts, each
	// recording its acknowledged runs. Heavy-ish specs (2 virtual days)
	// guarantee the kill below lands while runs are still executing.
	var (
		mu   sync.Mutex
		acks []accepted
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := service.Spec{
					Tenant: fmt.Sprintf("t%d", c), Site: "cineca",
					Seed: uint64(100*c + n), Jobs: 30, Days: 2,
				}
				id, code, err := submit(client, srv1.addr, sp)
				if err != nil {
					return // connection died: the kill landed
				}
				switch {
				case id != "":
					mu.Lock()
					acks = append(acks, accepted{id: id, spec: sp})
					mu.Unlock()
				case code == 429 || code == 503:
					time.Sleep(20 * time.Millisecond)
				}
			}
		}(c)
	}

	// SIGKILL as soon as a real backlog exists — no drain, no fsync
	// beyond what the journal already promised at each 202.
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(acks)
		mu.Unlock()
		if n >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d accepted runs before deadline", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv1.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	srv1.cmd.Wait() //nolint:errcheck // killed: exit state is expected noise
	close(stop)
	wg.Wait()
	mu.Lock()
	final := append([]accepted(nil), acks...)
	mu.Unlock()
	t.Logf("killed mid-stampede with %d accepted runs", len(final))

	// Restart on the same journal. The recovery line must land. The child
	// logs it before printing ADDR, but its stderr reaches the buffer
	// through exec's own copy goroutine, so wait for the line.
	srv2 := startServer(t, dir)
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(srv2.stderr.String(), "replayed"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("restarted server logged no recovery line:\n%s", srv2.stderr.String())
		}
	}

	// Zero accepted-then-lost: every acknowledged run must exist, reach a
	// terminal state, and — since nobody cancelled anything — complete.
	recovered := 0
	verifyDeadline := time.Now().Add(3 * time.Minute)
	for _, a := range final {
		for {
			info, code, err := getRun(client, srv2.addr, a.id)
			if err != nil {
				t.Fatalf("poll %s: %v", a.id, err)
			}
			if code == 404 {
				t.Fatalf("run %s was accepted (202) and then lost across the crash", a.id)
			}
			if code != 200 {
				t.Fatalf("poll %s: status %d", a.id, code)
			}
			if info.State == "complete" {
				if info.Recovered {
					recovered++
				}
				break
			}
			if info.State == "failed" || info.State == "cancelled" {
				t.Fatalf("run %s ended %s (%s) after recovery, want complete", a.id, info.State, info.Reason)
			}
			if time.Now().After(verifyDeadline) {
				t.Fatalf("run %s still %s at deadline", a.id, info.State)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if recovered == 0 {
		t.Fatal("no run carried the recovered flag — the kill did not interrupt anything, harness is vacuous")
	}
	t.Logf("all %d accepted runs complete after restart (%d via recovery)", len(final), recovered)

	// Determinism: a recovered run's re-executed report must be
	// byte-identical to a fresh run of the same spec on the same server.
	probe := final[0]
	recoveredReport := getReport(t, client, srv2.addr, probe.id)
	freshID := ""
	for freshID == "" {
		id, code, err := submit(client, srv2.addr, probe.spec)
		if err != nil {
			t.Fatalf("golden submit: %v", err)
		}
		if id == "" {
			if code != 429 && code != 503 {
				t.Fatalf("golden submit: status %d", code)
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		freshID = id
	}
	for {
		info, code, err := getRun(client, srv2.addr, freshID)
		if err != nil || code != 200 {
			t.Fatalf("poll golden %s: %d %v", freshID, code, err)
		}
		if info.State == "complete" {
			break
		}
		if info.State == "failed" || info.State == "cancelled" {
			t.Fatalf("golden run ended %s (%s)", info.State, info.Reason)
		}
		if time.Now().After(verifyDeadline) {
			t.Fatal("golden run never completed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	freshReport := getReport(t, client, srv2.addr, freshID)
	if !bytes.Equal(recoveredReport, freshReport) {
		t.Fatalf("recovered report for %s differs from a fresh run of the same spec (%d vs %d bytes)",
			probe.id, len(recoveredReport), len(freshReport))
	}

	// And the restarted server still dies politely.
	if err := srv2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v\nstderr:\n%s", err, srv2.stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("restarted server did not drain on SIGTERM")
	}
}
