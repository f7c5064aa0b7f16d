package power

import (
	"math"
	"testing"

	"epajsrm/internal/cluster"
	"epajsrm/internal/simulator"
)

func TestClimateSeasonalCycle(t *testing.T) {
	c := DefaultClimate()
	spring := c.TempAt(0)
	summer := c.TempAt(91 * simulator.Day)
	winter := c.TempAt(274 * simulator.Day)
	if summer <= spring || winter >= spring {
		t.Fatalf("seasonal cycle wrong: spring=%.1f summer=%.1f winter=%.1f", spring, summer, winter)
	}
	if !c.IsSummer(91 * simulator.Day) {
		t.Fatal("day 91 should be summer")
	}
	if c.IsSummer(274 * simulator.Day) {
		t.Fatal("day 274 should be winter")
	}
}

func TestClimateDailyCycle(t *testing.T) {
	c := Climate{MeanC: 10, DailyAmpC: 5}
	quarterDay := 6 * simulator.Hour
	if got := c.TempAt(quarterDay); math.Abs(got-15) > 0.01 {
		t.Fatalf("quarter-day temp = %.2f, want 15", got)
	}
	if got := c.TempAt(18 * simulator.Hour); math.Abs(got-5) > 0.01 {
		t.Fatalf("three-quarter-day temp = %.2f, want 5", got)
	}
}

func TestPUEGrowsWithTemperature(t *testing.T) {
	f := DefaultFacility()
	f.Climate = Climate{MeanC: 30} // constant 30 C, above the 15 C threshold
	pueHot := f.PUE(0)
	f.Climate = Climate{MeanC: 5}
	pueCold := f.PUE(0)
	if pueCold != f.BasePUE {
		t.Fatalf("cold PUE = %f, want base %f", pueCold, f.BasePUE)
	}
	if pueHot <= pueCold {
		t.Fatalf("hot PUE %f should exceed cold %f", pueHot, pueCold)
	}
	want := f.BasePUE + 0.01*15
	if math.Abs(pueHot-want) > 1e-9 {
		t.Fatalf("hot PUE = %f, want %f", pueHot, want)
	}
}

func TestITBudgetRespectsSiteAndCooling(t *testing.T) {
	f := DefaultFacility()
	f.Climate = Climate{MeanC: 10}
	if !math.IsInf(f.ITBudget(0), 1) {
		t.Fatal("unconstrained facility should report infinite budget")
	}
	f.SiteBudgetW = 110
	want := 110 / f.BasePUE
	if got := f.ITBudget(0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("IT budget = %f, want %f", got, want)
	}
	f.CoolingCapW = 50
	if got := f.ITBudget(0); got != 50 {
		t.Fatalf("cooling-limited budget = %f", got)
	}
}

func TestTelemetrySampling(t *testing.T) {
	eng := simulator.NewEngine()
	cl := cluster.New(cluster.DefaultConfig())
	sys := NewSystem(cl, DefaultNodeModel(), DefaultPStates(), 0, nil)
	tel := NewTelemetry(sys, nil, 10*simulator.Second, 0).Start(eng)
	eng.RunUntil(100)
	if got := tel.ITStats.N(); got != 10 {
		t.Fatalf("samples = %d, want 10", got)
	}
	wantIdle := float64(cl.Size()) * sys.Model.IdleW
	if tel.ITStats.Mean() != wantIdle {
		t.Fatalf("mean = %f, want %f", tel.ITStats.Mean(), wantIdle)
	}
	if len(tel.Series) != 10 {
		t.Fatalf("series length = %d", len(tel.Series))
	}
	tel.Stop()
	eng.RunUntil(200)
	if got := tel.ITStats.N(); got != 10 {
		t.Fatalf("sampler kept running after Stop: %d", got)
	}
}

func TestTelemetrySeriesDecimation(t *testing.T) {
	eng := simulator.NewEngine()
	cl := cluster.New(cluster.DefaultConfig())
	sys := NewSystem(cl, DefaultNodeModel(), DefaultPStates(), 0, nil)
	tel := NewTelemetry(sys, nil, 1*simulator.Second, 16).Start(eng)
	eng.RunUntil(100)
	if len(tel.Series) > 16 {
		t.Fatalf("series grew beyond cap: %d", len(tel.Series))
	}
	if tel.ITStats.N() != 100 {
		t.Fatalf("stats must not be decimated: %d", tel.ITStats.N())
	}
}

func TestTelemetryCoolingReadings(t *testing.T) {
	eng := simulator.NewEngine()
	cl := cluster.New(cluster.DefaultConfig())
	sys := NewSystem(cl, DefaultNodeModel(), DefaultPStates(), 0, nil)
	fac := DefaultFacility()
	fac.Climate = Climate{MeanC: 25} // constant: PUE = 1.1 + 0.01*10 = 1.2
	tel := NewTelemetry(sys, fac, 10*simulator.Second, 0).Start(eng)
	eng.RunUntil(10)
	r := tel.Series[0]
	if math.Abs(r.CoolW-r.ITW*0.2) > 1e-6 {
		t.Fatalf("cooling = %f for IT %f, want 20%%", r.CoolW, r.ITW)
	}
}
