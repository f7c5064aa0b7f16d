package simulator

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30, "c", func(Time) { order = append(order, 3) })
	e.After(10, "a", func(Time) { order = append(order, 1) })
	e.After(20, "b", func(Time) { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOWithinSameTimestamp(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5, "x", func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of order: %v", order)
		}
	}
}

func TestEngineRejectsPastEvents(t *testing.T) {
	e := NewEngine()
	e.After(10, "later", func(now Time) {
		if _, err := e.At(5, "past", func(Time) {}); err == nil {
			t.Error("scheduling in the past should fail")
		}
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.After(10, "x", func(Time) { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineRunUntilLeavesFutureEventsQueued(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		e.After(at, "x", func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(10)
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("fired = %v, want [5]", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %d, want 10", e.Now())
	}
	e.RunUntil(30)
	if len(fired) != 3 {
		t.Fatalf("after continuing, fired = %v, want 3 events", fired)
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine()
	count := 0
	stop := e.Every(10, "tick", func(now Time) { count++ })
	defer stop()
	e.RunUntil(47)
	if count != 4 {
		t.Fatalf("ticks = %d, want 4 (at 10,20,30,40)", count)
	}
	if e.Now() != 47 {
		t.Fatalf("now = %d, want 47", e.Now())
	}
}

func TestEngineEveryStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var stop func()
	stop = e.Every(10, "tick", func(now Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	e.RunUntil(1000)
	if count != 3 {
		t.Fatalf("ticks after stop = %d, want 3", count)
	}
}

func TestEngineDaemonsDoNotKeepRunAlive(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Every(10, "daemon", func(now Time) { ticks++ })
	e.After(35, "work", func(Time) {})
	end := e.Run() // unbounded: must stop once the one real event fired
	if end != 35 {
		t.Fatalf("end = %d, want 35", end)
	}
	if ticks != 3 {
		t.Fatalf("daemon ticks = %d, want 3 (at 10,20,30)", ticks)
	}
}

func TestEngineDaemonsRunToExplicitHorizon(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Every(10, "daemon", func(now Time) { ticks++ })
	e.RunUntil(100)
	if ticks != 10 {
		t.Fatalf("daemon ticks to horizon = %d, want 10", ticks)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func(now Time)
	recurse = func(now Time) {
		depth++
		if depth < 100 {
			e.After(1, "r", recurse)
		}
	}
	e.After(0, "r", recurse)
	end := e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if end != 99 {
		t.Fatalf("end = %d, want 99", end)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "00:00:00"},
		{61, "00:01:01"},
		{3661, "01:01:01"},
		{Day + Hour + Minute + 1, "1d01:01:01"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	for n := 1; n < 50; n++ {
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGRangeInclusive(t *testing.T) {
	r := NewRNG(11)
	sawLo, sawHi := false, false
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("Range(3,5) = %d", v)
		}
		if v == 3 {
			sawLo = true
		}
		if v == 5 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Error("Range never produced an endpoint in 1000 draws")
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / float64(n)
	if mean < 95 || mean > 105 {
		t.Fatalf("Exp(100) sample mean = %.2f, want ~100", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(17)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("Normal mean = %.3f, want ~10", mean)
	}
	if variance < 3.5 || variance > 4.5 {
		t.Fatalf("Normal variance = %.3f, want ~4", variance)
	}
}

func TestRNGChoiceWeights(t *testing.T) {
	r := NewRNG(23)
	counts := [3]int{}
	for i := 0; i < 10000; i++ {
		counts[r.Choice([]float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	// index 2 should be chosen ~3x as often as index 0.
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestRNGChoiceAllZeroWeightsUniform(t *testing.T) {
	r := NewRNG(29)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Choice([]float64{0, 0, 0})] = true
	}
	if len(seen) < 2 {
		t.Error("all-zero weights should fall back to uniform choice")
	}
}

func TestDaemonEventsDoNotKeepRunAlive(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.AfterDaemon(100, "daemon", func(Time) { fired = true })
	if end := eng.Run(); end != 0 {
		t.Fatalf("unbounded run advanced to %v on daemons alone", end)
	}
	if fired {
		t.Fatal("daemon fired with no live work")
	}
}

func TestDaemonEventsFireToHorizon(t *testing.T) {
	eng := NewEngine()
	var fires []Time
	eng.AfterDaemon(10, "d1", func(now Time) { fires = append(fires, now) })
	if _, err := eng.AtDaemon(25, "d2", func(now Time) { fires = append(fires, now) }); err != nil {
		t.Fatal(err)
	}
	eng.AfterDaemon(99, "d3", func(now Time) { fires = append(fires, now) })
	if end := eng.RunUntil(50); end != 50 {
		t.Fatalf("RunUntil ended at %v", end)
	}
	if len(fires) != 2 || fires[0] != 10 || fires[1] != 25 {
		t.Fatalf("fires = %v, want [10 25]", fires)
	}
}

func TestDaemonEventsFireWhileLiveWorkRemains(t *testing.T) {
	eng := NewEngine()
	daemonFired := false
	eng.AfterDaemon(10, "daemon", func(Time) { daemonFired = true })
	eng.After(20, "live", func(Time) {})
	if end := eng.Run(); end != 20 {
		t.Fatalf("run ended at %v, want 20", end)
	}
	if !daemonFired {
		t.Fatal("daemon before the last live event did not fire")
	}
}

func TestAtDaemonRejectsPast(t *testing.T) {
	eng := NewEngine()
	eng.After(10, "advance", func(Time) {})
	eng.Run()
	if _, err := eng.AtDaemon(5, "late", func(Time) {}); err == nil {
		t.Fatal("AtDaemon accepted an event in the past")
	}
}
