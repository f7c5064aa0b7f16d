package power

import (
	"math"

	"epajsrm/internal/simulator"
)

// Climate is a sinusoidal outside-temperature model: a seasonal cycle over
// a year plus a daily cycle. RIKEN's production row bases pre-run power
// estimates on temperature, and LRZ's research row delays jobs when the
// cooling infrastructure is inefficient — both need weather.
type Climate struct {
	MeanC      float64 // annual mean temperature
	SeasonAmpC float64 // seasonal half-swing
	DailyAmpC  float64 // daily half-swing
	PhaseShift simulator.Time
}

// DefaultClimate returns a temperate climate: 12 C mean, +/-10 C seasonal,
// +/-5 C daily.
func DefaultClimate() Climate {
	return Climate{MeanC: 12, SeasonAmpC: 10, DailyAmpC: 5}
}

// TempAt returns the outside temperature at virtual time t (time zero is
// the start of spring, so mid-summer falls a quarter-year in).
func (c Climate) TempAt(t simulator.Time) float64 {
	year := float64(365 * simulator.Day)
	day := float64(simulator.Day)
	tt := float64(t + c.PhaseShift)
	season := math.Sin(2 * math.Pi * tt / year)
	daily := math.Sin(2 * math.Pi * tt / day)
	return c.MeanC + c.SeasonAmpC*season + c.DailyAmpC*daily
}

// IsSummer reports whether t falls in the warm half of the year; Tokyo
// Tech's boot-window capping is enforced "summer only".
func (c Climate) IsSummer(t simulator.Time) bool {
	year := float64(365 * simulator.Day)
	return math.Sin(2*math.Pi*float64(t+c.PhaseShift)/year) > 0
}

// Facility models the datacenter around the machine: a site power budget
// (Q2a), a cooling capacity (Q2b), and a temperature-dependent cooling
// overhead. PUE rises as outside temperature rises because chillers work
// harder — the coefficient is linear in (T - FreeCoolBelowC) above the
// free-cooling threshold.
type Facility struct {
	SiteBudgetW    float64 // total site power budget (IT + cooling); 0 = unlimited
	CoolingCapW    float64 // maximum heat the cooling plant can move; 0 = unlimited
	BasePUE        float64 // PUE at or below the free-cooling threshold
	PUEPerDegree   float64 // PUE increase per degree C above threshold
	FreeCoolBelowC float64
	Climate        Climate
}

// DefaultFacility returns a facility with PUE 1.1 under free cooling rising
// 0.01/°C above 15 °C, and no hard limits.
func DefaultFacility() *Facility {
	return &Facility{BasePUE: 1.1, PUEPerDegree: 0.01, FreeCoolBelowC: 15, Climate: DefaultClimate()}
}

// PUE returns the power usage effectiveness at time t.
func (f *Facility) PUE(t simulator.Time) float64 {
	temp := f.Climate.TempAt(t)
	pue := f.BasePUE
	if temp > f.FreeCoolBelowC {
		pue += f.PUEPerDegree * (temp - f.FreeCoolBelowC)
	}
	if pue < 1 {
		pue = 1
	}
	return pue
}

// CoolingPower returns the non-IT overhead draw for itW of compute at t.
func (f *Facility) CoolingPower(t simulator.Time, itW float64) float64 {
	return itW * (f.PUE(t) - 1)
}

// SitePower returns total facility draw for itW of compute at t.
func (f *Facility) SitePower(t simulator.Time, itW float64) float64 {
	return itW * f.PUE(t)
}

// ITBudget returns the largest IT draw that keeps the site inside both the
// site budget and the cooling capacity at time t. Returns +Inf when
// unconstrained.
func (f *Facility) ITBudget(t simulator.Time) float64 {
	limit := math.Inf(1)
	pue := f.PUE(t)
	if f.SiteBudgetW > 0 {
		limit = f.SiteBudgetW / pue
	}
	if f.CoolingCapW > 0 {
		// All IT power becomes heat; the plant must move it.
		if f.CoolingCapW < limit {
			limit = f.CoolingCapW
		}
	}
	return limit
}
