// Package site encodes the nine surveyed centers as executable simulation
// profiles: a scaled-down cluster, a workload shaped like the site's Q3
// answers, a facility/climate, and the EPA JSRM policies the site's
// Table I/II rows describe. Scaling note (documented substitution): node
// counts are reduced ~50-100x from the production machines so a profile
// runs in milliseconds; power budgets scale with the node counts, so every
// control loop exercises the same regime it would at full scale.
package site

import (
	"fmt"

	"epajsrm/internal/checkpoint"
	"epajsrm/internal/cluster"
	"epajsrm/internal/core"
	"epajsrm/internal/esp"
	"epajsrm/internal/fault"
	"epajsrm/internal/jobs"
	"epajsrm/internal/policy"
	"epajsrm/internal/power"
	"epajsrm/internal/predict"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
	"epajsrm/internal/workload"
)

// Profile is one center's executable configuration.
type Profile struct {
	Name string
	Desc string

	Cluster  cluster.Config
	Model    power.NodeModel
	VarSigma float64
	Facility *power.Facility
	Workload workload.Spec
	// Attach wires the site's policies onto a freshly built manager and
	// returns any auxiliary state experiments may want to inspect.
	Attach func(m *core.Manager) []core.Policy
	// Faults, when non-nil, attaches a fault injector with this profile
	// (seeded from the build seed). The nine surveyed profiles leave it nil
	// — fault injection is opt-in per run, e.g. via epasim's flags.
	Faults *fault.Profile
	// Checkpoint configures the checkpoint/restart substrate. The nine
	// surveyed profiles leave it zero (disabled) — the survey's sites did
	// not report system-level checkpointing in production; enable it per
	// run via epasim's -ckpt-* flags.
	Checkpoint checkpoint.Config
}

// Build constructs the manager for a profile and submits n jobs from its
// workload generator, all seeded deterministically.
func (p Profile) Build(seed uint64, n int) (*core.Manager, []*jobs.Job, error) {
	m := core.NewManager(core.Options{
		Cluster:    p.Cluster,
		NodeModel:  p.Model,
		VarSigma:   p.VarSigma,
		Seed:       seed,
		Scheduler:  sched.EASY{},
		Facility:   p.Facility,
		Checkpoint: p.Checkpoint,
	})
	if p.Attach != nil {
		for _, pol := range p.Attach(m) {
			m.Use(pol)
		}
	}
	if p.Faults != nil && !p.Faults.Zero() {
		fault.New(m, *p.Faults, seed^0xfa17).Start()
	}
	gen := workload.NewGenerator(p.Workload, seed^0x5eed)
	js := gen.Generate(n)
	for _, j := range js {
		if err := m.Submit(j, j.Submit); err != nil {
			return nil, nil, fmt.Errorf("site %s: %w", p.Name, err)
		}
	}
	return m, js, nil
}

// All returns the nine profiles in the paper's order.
func All() []Profile {
	return []Profile{
		RIKEN(), TokyoTech(), CEA(), KAUST(), LRZ(),
		STFC(), Trinity(), CINECA(), JCAHPC(),
	}
}

// byName helps the CLI look profiles up.
func ByName(name string) (Profile, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// RIKEN models the K-computer site: hard site power limit, automated
// emergency kills, temperature-based pre-run power estimates, and grid vs
// gas-turbine sourcing.
func RIKEN() Profile {
	fac := power.DefaultFacility()
	fac.Climate = power.Climate{MeanC: 16, SeasonAmpC: 9, DailyAmpC: 4}
	return Profile{
		Name: "riken",
		Desc: "RIKEN (Japan): emergency job killing at the power limit, temperature-based pre-run power estimates, grid/gas-turbine integration",
		Cluster: cluster.Config{
			Name: "kcomp", Nodes: 256, NodesPerRack: 32, RacksPerPDU: 2, PDUsPerChiller: 2,
			Sockets: 1, CoresPerSocket: 8, MemGB: 16, Arch: "sparc64",
			BootDelay: 5 * simulator.Minute, ShutdownDelay: 2 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 10, BootW: 80, IdleW: 60, MaxW: 240, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.04,
		Facility: fac,
		Workload: workload.Spec{
			ArrivalMeanSec: 240, MinNodes: 1, MaxNodes: 128, CapabilityFrac: 0.30,
			RuntimeMedianSec: 5400, RuntimeSigma: 1.1, WalltimeFactorMax: 3, Users: 30,
		},
		Attach: func(m *core.Manager) []core.Policy {
			// Temperature-adjusted tag-history predictor feeds the manager's
			// pre-run estimates (RIKEN's production capability).
			th := predict.NewTagHistory(200, 8)
			ta := &predict.TempAdjusted{
				Base:      th,
				TempNow:   func() float64 { return fac.Climate.TempAt(m.Eng.Now()) },
				RefC:      16,
				PerDegree: 0.004,
			}
			core.UsePredictor(m, ta)
			prov := &esp.Provider{
				Tariff:            esp.PeakTariff(0.10, 0.22),
				TurbineCapW:       30e3,
				TurbineCostPerKWh: 0.15,
			}
			return []core.Policy{
				&policy.Emergency{LimitW: 55e3, PreRunGate: true},
				&policy.GridAware{Provider: prov, PeakMaxNodes: 64},
				// "3 days for large jobs each month": the window reserves
				// capability days; wide jobs may still run outside it.
				&policy.CapabilityWindow{WideNodes: 96, WindowDays: 3, MonthDays: 30},
				&policy.EnergyReport{},
			}
		},
	}
}

// TokyoTech models TSUBAME: boot-window power capping (summer only), idle
// node shutdown, per-job energy reports and efficiency marks.
func TokyoTech() Profile {
	fac := power.DefaultFacility()
	fac.Climate = power.Climate{MeanC: 17, SeasonAmpC: 11, DailyAmpC: 4}
	return Profile{
		Name: "tokyotech",
		Desc: "Tokyo Tech (Japan): boot/shutdown to hold a summer power cap over a ~30 min window without killing jobs; idle shutdown; user energy marks",
		Cluster: cluster.Config{
			Name: "tsubame", Nodes: 128, NodesPerRack: 16, RacksPerPDU: 2, PDUsPerChiller: 2,
			Sockets: 2, CoresPerSocket: 14, MemGB: 256, Arch: "x86_64+gpu",
			BootDelay: 4 * simulator.Minute, ShutdownDelay: 1 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 20, BootW: 150, IdleW: 130, MaxW: 900, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.05,
		Facility: fac,
		Workload: workload.Spec{
			ArrivalMeanSec: 300, MinNodes: 1, MaxNodes: 32, CapabilityFrac: 0.10,
			RuntimeMedianSec: 3600, RuntimeSigma: 1.0, WalltimeFactorMax: 3, Users: 40,
		},
		Attach: func(m *core.Manager) []core.Policy {
			// The first rack hosts VMs ("uses virtual machines to split
			// compute nodes"), which the shutdown policies must not touch.
			for _, n := range m.Cl.Nodes {
				if n.Rack == 0 {
					n.VMHost = true
				}
			}
			return []core.Policy{
				&policy.BootWindowCap{CapW: 75e3, Window: 30 * simulator.Minute, SummerOnly: true},
				&policy.IdleShutdown{IdleAfter: 20 * simulator.Minute, MinSpare: 4},
				&policy.EnergyReport{},
			}
		},
	}
}

// CEA models the French site: SLURM layout logic for PDU/chiller
// maintenance and power-adaptive scheduling development.
func CEA() Profile {
	return Profile{
		Name: "cea",
		Desc: "CEA (France): layout-aware scheduling around PDU/chiller maintenance; power-adaptive SLURM development with BULL",
		Cluster: cluster.Config{
			Name: "curie", Nodes: 192, NodesPerRack: 24, RacksPerPDU: 2, PDUsPerChiller: 2,
			Sockets: 2, CoresPerSocket: 12, MemGB: 128, Arch: "x86_64",
			BootDelay: 3 * simulator.Minute, ShutdownDelay: 1 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 12, BootW: 110, IdleW: 95, MaxW: 380, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.04,
		Facility: power.DefaultFacility(),
		Workload: workload.Spec{
			ArrivalMeanSec: 200, MinNodes: 1, MaxNodes: 64, CapabilityFrac: 0.20,
			RuntimeMedianSec: 4500, RuntimeSigma: 1.0, WalltimeFactorMax: 3, Users: 35,
		},
		Attach: func(m *core.Manager) []core.Policy {
			return []core.Policy{
				&policy.LayoutAware{Windows: []policy.MaintenanceWindow{
					{PDU: 1, Chiller: -1, From: 6 * simulator.Hour, Until: 12 * simulator.Hour},
					{PDU: -1, Chiller: 1, From: 30 * simulator.Hour, Until: 36 * simulator.Hour},
				}},
				&policy.DVFSBudget{BudgetW: 60e3, StartUnderBudget: true},
			}
		},
	}
}

// KAUST models Shaheen: the static 270 W cap on 70 % of nodes plus SLURM
// dynamic power management.
func KAUST() Profile {
	fac := power.DefaultFacility()
	fac.Climate = power.Climate{MeanC: 28, SeasonAmpC: 6, DailyAmpC: 6}
	return Profile{
		Name: "kaust",
		Desc: "KAUST (Saudi Arabia): static CAPMC caps (70% of nodes at 270 W) plus SLURM dynamic power management",
		Cluster: cluster.Config{
			Name: "shaheen", Nodes: 256, NodesPerRack: 32, RacksPerPDU: 2, PDUsPerChiller: 2,
			Sockets: 2, CoresPerSocket: 16, MemGB: 128, Arch: "x86_64",
			BootDelay: 3 * simulator.Minute, ShutdownDelay: 1 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 15, BootW: 120, IdleW: 100, MaxW: 350, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.06,
		Facility: fac,
		Workload: workload.Spec{
			ArrivalMeanSec: 180, MinNodes: 1, MaxNodes: 64, CapabilityFrac: 0.25,
			RuntimeMedianSec: 3600, RuntimeSigma: 1.0, WalltimeFactorMax: 3, Users: 50,
		},
		Attach: func(m *core.Manager) []core.Policy {
			return []core.Policy{
				&policy.StaticCap{CapW: 270, UncappedFrac: 0.30, RouteHungry: true},
				&policy.EnergyReport{},
			}
		},
	}
}

// LRZ models SuperMUC: per-application frequency characterization with the
// administrator choosing energy-to-solution vs best performance.
func LRZ() Profile {
	return Profile{
		Name: "lrz",
		Desc: "LRZ (Germany): LoadLeveler/LSF-style energy-aware scheduling — first-run characterization, then per-app frequency under an admin goal",
		Cluster: cluster.Config{
			Name: "supermuc", Nodes: 128, NodesPerRack: 16, RacksPerPDU: 2, PDUsPerChiller: 2,
			Sockets: 2, CoresPerSocket: 8, MemGB: 32, Arch: "x86_64",
			BootDelay: 3 * simulator.Minute, ShutdownDelay: 1 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 12, BootW: 100, IdleW: 85, MaxW: 320, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.03,
		Facility: power.DefaultFacility(),
		Workload: workload.Spec{
			ArrivalMeanSec: 240, MinNodes: 1, MaxNodes: 32, CapabilityFrac: 0.15,
			RuntimeMedianSec: 5400, RuntimeSigma: 0.9, WalltimeFactorMax: 3, Users: 60,
		},
		Attach: func(m *core.Manager) []core.Policy {
			return []core.Policy{
				&policy.EnergyTag{Goal: policy.GoalEnergyToSolution, MaxSlowdown: 1.25},
				&policy.EnergyReport{},
			}
		},
	}
}

// STFC models the Hartree Centre: continuous multi-level monitoring plus
// job-level user power reporting.
func STFC() Profile {
	return Profile{
		Name: "stfc",
		Desc: "STFC Hartree (UK): continuous power/energy monitoring at data center, machine and job levels; user consumption reports",
		Cluster: cluster.Config{
			Name: "hartree", Nodes: 90, NodesPerRack: 18, RacksPerPDU: 1, PDUsPerChiller: 5,
			Sockets: 2, CoresPerSocket: 12, MemGB: 128, Arch: "x86_64",
			BootDelay: 3 * simulator.Minute, ShutdownDelay: 1 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 12, BootW: 100, IdleW: 90, MaxW: 330, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.03,
		Facility: power.DefaultFacility(),
		Workload: workload.Spec{
			ArrivalMeanSec: 300, MinNodes: 1, MaxNodes: 16, CapabilityFrac: 0.10,
			RuntimeMedianSec: 2700, RuntimeSigma: 1.0, WalltimeFactorMax: 3, Users: 25,
		},
		Attach: func(m *core.Manager) []core.Policy {
			// STFC's production capability is the monitoring itself:
			// continuous collection at data center, machine and job levels
			// is the manager's power.Telemetry sampling, and the user
			// consumption reports are EnergyReport's per-job energy.
			return []core.Policy{&policy.EnergyReport{}}
		},
	}
}

// Trinity models the LANL+Sandia ACES machine: CAPMC out-of-band capping
// with administrator-set system-wide caps.
func Trinity() Profile {
	return Profile{
		Name: "trinity",
		Desc: "Trinity/LANL+Sandia (US): CAPMC out-of-band system-wide and node-level power caps",
		Cluster: cluster.Config{
			Name: "trinity", Nodes: 256, NodesPerRack: 32, RacksPerPDU: 2, PDUsPerChiller: 2,
			Sockets: 2, CoresPerSocket: 16, MemGB: 128, Arch: "x86_64",
			BootDelay: 3 * simulator.Minute, ShutdownDelay: 1 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 15, BootW: 130, IdleW: 110, MaxW: 400, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.05,
		Facility: power.DefaultFacility(),
		Workload: workload.Spec{
			ArrivalMeanSec: 200, MinNodes: 2, MaxNodes: 128, CapabilityFrac: 0.35,
			RuntimeMedianSec: 7200, RuntimeSigma: 1.0, WalltimeFactorMax: 3, Users: 20,
		},
		Attach: func(m *core.Manager) []core.Policy {
			// An administrator applies a system-wide cap at attach time via
			// the out-of-band controller; the GroupCap policy keeps the
			// manual-response interface available.
			if err := m.Ctrl.SetSystemCap(70e3); err != nil {
				panic(err)
			}
			return []core.Policy{&policy.GroupCap{PerNodeW: map[int]float64{}}}
		},
	}
}

// CINECA models the Bologna site: model-based per-job power prediction
// (with the University of Bologna) feeding power-aware SLURM development.
func CINECA() Profile {
	return Profile{
		Name: "cineca",
		Desc: "CINECA (Italy): predictive per-job power models from scalable monitoring, feeding EPA scheduling in SLURM/PBSPro",
		Cluster: cluster.Config{
			Name: "eurora", Nodes: 64, NodesPerRack: 16, RacksPerPDU: 2, PDUsPerChiller: 2,
			Sockets: 2, CoresPerSocket: 8, MemGB: 32, Arch: "x86_64+mic",
			BootDelay: 3 * simulator.Minute, ShutdownDelay: 1 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 10, BootW: 90, IdleW: 70, MaxW: 300, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.05,
		Facility: power.DefaultFacility(),
		Workload: workload.Spec{
			ArrivalMeanSec: 240, MinNodes: 1, MaxNodes: 16, CapabilityFrac: 0.10,
			RuntimeMedianSec: 1800, RuntimeSigma: 1.1, WalltimeFactorMax: 3, Users: 30,
		},
		Attach: func(m *core.Manager) []core.Policy {
			// Scalable power monitoring feeds the predictive models
			// (CINECA + University of Bologna; the Examon lineage): the
			// manager's power.Telemetry samples the draw, EnergyReport
			// attributes per-job energy, and the regression learns from
			// each completed job's metered draw.
			core.UsePredictor(m, predict.NewRegression(180))
			return []core.Policy{
				&policy.DVFSBudget{BudgetW: 14e3, StartUnderBudget: true},
				&policy.EnergyReport{},
			}
		},
	}
}

// JCAHPC models Oakforest-PACS: group power caps via the resource manager
// and post-job energy reports.
func JCAHPC() Profile {
	return Profile{
		Name: "jcahpc",
		Desc: "JCAHPC (Japan): rack-group power caps via the resource manager (Fujitsu), manual emergency caps, post-job energy reports",
		Cluster: cluster.Config{
			Name: "ofp", Nodes: 128, NodesPerRack: 16, RacksPerPDU: 2, PDUsPerChiller: 2,
			Sockets: 1, CoresPerSocket: 68, MemGB: 96, Arch: "knl",
			BootDelay: 4 * simulator.Minute, ShutdownDelay: 1 * simulator.Minute,
		},
		Model:    power.NodeModel{OffW: 12, BootW: 100, IdleW: 90, MaxW: 270, Alpha: 3, MinFrac: 0.5},
		VarSigma: 0.05,
		Facility: power.DefaultFacility(),
		Workload: workload.Spec{
			ArrivalMeanSec: 240, MinNodes: 1, MaxNodes: 64, CapabilityFrac: 0.20,
			RuntimeMedianSec: 3600, RuntimeSigma: 1.0, WalltimeFactorMax: 3, Users: 40,
		},
		Attach: func(m *core.Manager) []core.Policy {
			caps := map[int]float64{}
			for r := 0; r < 4; r++ { // cap the first four racks
				caps[r] = 220
			}
			return []core.Policy{
				&policy.GroupCap{PerNodeW: caps},
				&policy.EnergyReport{},
			}
		},
	}
}
