package esp

import (
	"math"
	"testing"

	"epajsrm/internal/simulator"
)

func TestTariffValidation(t *testing.T) {
	if _, err := NewTariff(); err == nil {
		t.Error("empty tariff accepted")
	}
	if _, err := NewTariff(TariffBand{StartHour: 8, PricePerKWh: 1}); err == nil {
		t.Error("tariff without hour-0 band accepted")
	}
	if _, err := NewTariff(
		TariffBand{StartHour: 0, PricePerKWh: 1},
		TariffBand{StartHour: 0, PricePerKWh: 2},
	); err == nil {
		t.Error("duplicate band accepted")
	}
	if _, err := NewTariff(TariffBand{StartHour: 0, PricePerKWh: -1}); err == nil {
		t.Error("negative price accepted")
	}
}

func TestPeakTariffSchedule(t *testing.T) {
	tf := PeakTariff(0.10, 0.25)
	cases := []struct {
		hour  int
		price float64
	}{
		{0, 0.10}, {7, 0.10}, {8, 0.25}, {21, 0.25}, {22, 0.10}, {23, 0.10},
	}
	for _, c := range cases {
		at := simulator.Time(c.hour) * simulator.Hour
		if got := tf.PriceAt(at); got != c.price {
			t.Errorf("hour %d price = %f, want %f", c.hour, got, c.price)
		}
	}
	if !tf.IsPeak(10 * simulator.Hour) {
		t.Error("hour 10 should be peak")
	}
	if tf.IsPeak(2 * simulator.Hour) {
		t.Error("hour 2 should be off-peak")
	}
	// Second day repeats.
	if got := tf.PriceAt(simulator.Day + 10*simulator.Hour); got != 0.25 {
		t.Errorf("day 2 peak price = %f", got)
	}
}

func TestFlatTariffNeverPeak(t *testing.T) {
	tf := FlatTariff(0.2)
	if tf.IsPeak(12 * simulator.Hour) {
		t.Error("flat tariff has no peak")
	}
}

func TestActiveDR(t *testing.T) {
	p := &Provider{
		Tariff: FlatTariff(0.1),
		Events: []DemandResponse{{From: 100, Until: 200, LimitW: 5000}},
	}
	if _, ok := p.ActiveDR(50); ok {
		t.Error("DR active before window")
	}
	if lim, ok := p.ActiveDR(150); !ok || lim != 5000 {
		t.Errorf("DR at 150 = %f,%v", lim, ok)
	}
	if _, ok := p.ActiveDR(200); ok {
		t.Error("DR active at exclusive end")
	}
}

func TestCostMeterFlatTariff(t *testing.T) {
	p := &Provider{Tariff: FlatTariff(0.10)}
	cm := NewCostMeter(p)
	cm.Observe(0, 3.6e6) // 3.6 MW from t=0
	cm.Observe(3600, 0)  // for one hour => 3600 kWh
	if math.Abs(cm.GridKWh-3600) > 1e-6 {
		t.Fatalf("grid kWh = %f", cm.GridKWh)
	}
	if math.Abs(cm.Cost-360) > 1e-6 {
		t.Fatalf("cost = %f, want 360", cm.Cost)
	}
}

func TestCostMeterUsesTurbineWhenCheaper(t *testing.T) {
	p := &Provider{
		Tariff:            FlatTariff(0.30),
		TurbineCapW:       1000,
		TurbineCostPerKWh: 0.10,
	}
	cm := NewCostMeter(p)
	cm.Observe(0, 1500) // 1.5 kW: 1 kW turbine + 0.5 kW grid
	cm.Observe(3600, 0)
	if math.Abs(cm.TurbKWh-1.0) > 1e-9 {
		t.Fatalf("turbine kWh = %f", cm.TurbKWh)
	}
	if math.Abs(cm.GridKWh-0.5) > 1e-9 {
		t.Fatalf("grid kWh = %f", cm.GridKWh)
	}
	want := 1.0*0.10 + 0.5*0.30
	if math.Abs(cm.Cost-want) > 1e-9 {
		t.Fatalf("cost = %f, want %f", cm.Cost, want)
	}
}

func TestCostMeterPeakShiftSavesMoney(t *testing.T) {
	// The same 1-hour 100 kW load costs less off-peak — the arithmetic
	// behind grid-aware scheduling (E13).
	p := &Provider{Tariff: PeakTariff(0.10, 0.30)}
	peak := NewCostMeter(p)
	peak.Observe(9*simulator.Hour, 100e3)
	peak.Observe(10*simulator.Hour, 0)
	off := NewCostMeter(p)
	off.Observe(23*simulator.Hour, 100e3)
	off.Observe(24*simulator.Hour, 0)
	if off.Cost >= peak.Cost {
		t.Fatalf("off-peak %.2f should be cheaper than peak %.2f", off.Cost, peak.Cost)
	}
	if math.Abs(peak.Cost-30) > 1e-6 || math.Abs(off.Cost-10) > 1e-6 {
		t.Fatalf("costs = %.2f/%.2f, want 30/10", peak.Cost, off.Cost)
	}
}
