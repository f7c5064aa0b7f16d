// Package esp models the electricity service provider side of the survey's
// motivating context (Bates et al. [6], Patki et al. [36]): time-of-day
// tariffs, demand-response requests, and on-site generation (RIKEN's
// research row weighs grid power against its gas turbines using job
// scheduler information). Energy cost is a first-order motivation in Q1
// answers, so cost metering lives here too.
package esp

import (
	"fmt"
	"sort"

	"epajsrm/internal/simulator"
)

// Tariff is a repeating daily price schedule in currency units per kWh.
type Tariff struct {
	// Bands are (start-hour, price) pairs covering a day; the band beginning
	// at the largest hour <= h applies at hour h. Must contain an entry for
	// hour 0.
	Bands []TariffBand
}

// TariffBand is one price band starting at StartHour (0-23).
type TariffBand struct {
	StartHour   int
	PricePerKWh float64
}

// NewTariff builds a tariff and validates it.
func NewTariff(bands ...TariffBand) (*Tariff, error) {
	if len(bands) == 0 {
		return nil, fmt.Errorf("esp: empty tariff")
	}
	sorted := append([]TariffBand(nil), bands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartHour < sorted[j].StartHour })
	if sorted[0].StartHour != 0 {
		return nil, fmt.Errorf("esp: tariff must start at hour 0")
	}
	for i, b := range sorted {
		if b.StartHour < 0 || b.StartHour > 23 {
			return nil, fmt.Errorf("esp: band %d start hour %d out of range", i, b.StartHour)
		}
		if b.PricePerKWh < 0 {
			return nil, fmt.Errorf("esp: negative price")
		}
		if i > 0 && b.StartHour == sorted[i-1].StartHour {
			return nil, fmt.Errorf("esp: duplicate band at hour %d", b.StartHour)
		}
	}
	return &Tariff{Bands: sorted}, nil
}

// MustTariff is NewTariff that panics on error, for literals in profiles.
func MustTariff(bands ...TariffBand) *Tariff {
	t, err := NewTariff(bands...)
	if err != nil {
		panic(err)
	}
	return t
}

// FlatTariff returns a constant-price tariff.
func FlatTariff(price float64) *Tariff {
	return MustTariff(TariffBand{StartHour: 0, PricePerKWh: price})
}

// PeakTariff returns a typical peak/off-peak split: off-peak price from
// 22:00 and 00:00, peak price from 08:00.
func PeakTariff(offPeak, peak float64) *Tariff {
	return MustTariff(
		TariffBand{StartHour: 0, PricePerKWh: offPeak},
		TariffBand{StartHour: 8, PricePerKWh: peak},
		TariffBand{StartHour: 22, PricePerKWh: offPeak},
	)
}

// PriceAt returns the price in effect at virtual time t.
func (tf *Tariff) PriceAt(t simulator.Time) float64 {
	hour := int((t % simulator.Day) / simulator.Hour)
	price := tf.Bands[0].PricePerKWh
	for _, b := range tf.Bands {
		if b.StartHour <= hour {
			price = b.PricePerKWh
		}
	}
	return price
}

// IsPeak reports whether the current price is the tariff's maximum band.
func (tf *Tariff) IsPeak(t simulator.Time) bool {
	maxP := 0.0
	for _, b := range tf.Bands {
		if b.PricePerKWh > maxP {
			maxP = b.PricePerKWh
		}
	}
	return tf.PriceAt(t) >= maxP && len(tf.Bands) > 1
}

// DemandResponse is an ESP request to hold site power at or below LimitW
// during [From, Until) — the grid-integration scenario of Bates et al.
type DemandResponse struct {
	From, Until simulator.Time
	LimitW      float64
}

// Provider bundles the ESP-facing state for one site.
type Provider struct {
	Tariff *Tariff
	Events []DemandResponse

	// Turbine models on-site generation: available capacity at a flat fuel
	// cost. Zero capacity means no turbine.
	TurbineCapW       float64
	TurbineCostPerKWh float64
}

// ActiveDR returns the demand-response limit in effect at t, or (0, false).
func (p *Provider) ActiveDR(t simulator.Time) (float64, bool) {
	for _, e := range p.Events {
		if t >= e.From && t < e.Until {
			return e.LimitW, true
		}
	}
	return 0, false
}

// CostMeter integrates energy cost over piecewise-constant power segments.
type CostMeter struct {
	Provider *Provider
	lastT    simulator.Time
	lastW    float64
	Cost     float64 // currency units
	GridKWh  float64
	TurbKWh  float64
}

// NewCostMeter returns a meter starting at time 0 with zero draw.
func NewCostMeter(p *Provider) *CostMeter { return &CostMeter{Provider: p} }

// Observe advances the meter to now with the draw that has held since the
// previous call, then records the new draw. Call it whenever site power
// changes and periodically (so tariff band changes are captured with
// bounded error).
func (cm *CostMeter) Observe(now simulator.Time, siteW float64) {
	dt := float64(now - cm.lastT)
	if dt > 0 {
		kwh := cm.lastW * dt / 3600 / 1000
		// Split between turbine and grid, cheapest first.
		turbW := 0.0
		if cm.Provider.TurbineCapW > 0 {
			price := cm.Provider.Tariff.PriceAt(cm.lastT)
			if cm.Provider.TurbineCostPerKWh < price {
				turbW = cm.lastW
				if turbW > cm.Provider.TurbineCapW {
					turbW = cm.Provider.TurbineCapW
				}
			}
		}
		gridW := cm.lastW - turbW
		turbKWh := turbW * dt / 3600 / 1000
		gridKWh := gridW * dt / 3600 / 1000
		cm.TurbKWh += turbKWh
		cm.GridKWh += gridKWh
		cm.Cost += turbKWh*cm.Provider.TurbineCostPerKWh + gridKWh*cm.Provider.Tariff.PriceAt(cm.lastT)
		_ = kwh
	}
	cm.lastT = now
	cm.lastW = siteW
}
