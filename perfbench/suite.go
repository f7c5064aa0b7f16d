package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"epajsrm/internal/experiments"
	"epajsrm/internal/runner"
)

// digest is the short content hash recorded for an output.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// suitePass runs every maker in report order at runner procs 1 and
// checks each Render() digest against want.
func suitePass(seed uint64, want map[string]string, tr *tracer) passResult {
	runner.SetProcs(1)
	makers := experiments.Makers()
	res := passResult{Attempted: len(makers), Outputs: map[string]string{}}
	root := tr.open("suite", 0)
	start := time.Now()
	for _, mk := range makers {
		t0 := time.Now()
		r := mk(seed)
		got := digest([]byte(r.Render()))
		t1 := time.Now()
		tr.add(r.ID, root, t0, t1)
		res.Outputs[r.ID] = got
		res.UnitMS = append(res.UnitMS, ms(t1.Sub(t0)))
		if want[r.ID] != got {
			res.fail(true, fmt.Sprintf("%s: render digest %s, recorded %q", r.ID, got, want[r.ID]))
		}
	}
	res.WallS = time.Since(start).Seconds()
	tr.close(root, "", "")
	return res
}
