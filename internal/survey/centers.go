package survey

// Maturity is the paper's three-way categorization of site activities.
type Maturity int

const (
	// Research denotes exploratory research activities.
	Research Maturity = iota
	// TechDev denotes technology development with intent to deploy.
	TechDev
	// Production denotes capabilities actively deployed in production.
	Production
)

var maturityNames = [...]string{"Research Activities", "Technology Development with Intent to Deploy", "Production Development"}

func (m Maturity) String() string { return maturityNames[m] }

// Capability is the technique taxonomy used by the initial analysis to
// find common themes across sites; each activity is labelled with the
// capabilities it involves.
type Capability int

const (
	CapPowerCapping Capability = iota
	CapDVFS
	CapNodeOnOff
	CapEnergyReporting
	CapPrediction
	CapEmergencyResponse
	CapGridIntegration
	CapSchedulerIntegration
	CapMonitoring
	CapInterSystemBudget
	CapLayoutAware
	CapVendorCollab
	capCount
)

var capabilityNames = [...]string{
	"power capping", "DVFS/frequency control", "node power on/off",
	"energy reporting to users", "power/energy prediction",
	"emergency power response", "electrical grid integration",
	"scheduler/RM integration", "power & energy monitoring",
	"inter-system budget sharing", "infrastructure layout awareness",
	"vendor collaboration",
}

func (c Capability) String() string { return capabilityNames[c] }

// Activity is one cell entry in Table I/II: a described effort at a center
// at a given maturity, labelled with the capabilities it exercises.
type Activity struct {
	Maturity     Maturity
	Desc         string
	Capabilities []Capability
}

// Center is one surveyed site.
type Center struct {
	Name    string
	Long    string // full institution name
	Country string
	Region  string // Asia, Europe, United States, Middle East
	Lat     float64
	Lon     float64
	// TablePart is 1 for Table I, 2 for Table II, matching the paper's
	// split.
	TablePart  int
	Activities []Activity
}

// Centers returns the nine participating sites with their Table I/II
// activity summaries transcribed into the structured model. Order matches
// the paper's listing in §III.
func Centers() []Center {
	return []Center{
		{
			Name: "RIKEN", Long: "RIKEN Advanced Institute for Computational Science",
			Country: "Japan", Region: "Asia", Lat: 34.65, Lon: 135.22, TablePart: 1,
			Activities: []Activity{
				{Research, "Integrating job scheduler info with decision to use grid vs. gas turbine energy",
					[]Capability{CapGridIntegration, CapSchedulerIntegration}},
				{TechDev, "Power-aware job scheduling for Post-K, with Fujitsu",
					[]Capability{CapSchedulerIntegration, CapVendorCollab}},
				{Production, "3 days for large jobs each month",
					[]Capability{CapSchedulerIntegration}},
				{Production, "Automated emergency job killing if power limit exceeded",
					[]Capability{CapEmergencyResponse, CapPowerCapping}},
				{Production, "Pre-run estimate of power usage of each job, based on temperature",
					[]Capability{CapPrediction}},
			},
		},
		{
			Name: "Tokyo Tech", Long: "Tokyo Institute of Technology (GSIC)",
			Country: "Japan", Region: "Asia", Lat: 35.61, Lon: 139.68, TablePart: 1,
			Activities: []Activity{
				{Research, "Activities to facilitate Production Development", nil},
				{Research, "Analyze collected power and energy info archived long term and use for EPA scheduling",
					[]Capability{CapMonitoring, CapPrediction}},
				{TechDev, "Inter-system power capping. TSUBAME2 and TSUBAME3 will need to share the facility power budget.",
					[]Capability{CapInterSystemBudget, CapPowerCapping}},
				{TechDev, "Gives users mark on how well they used power and energy",
					[]Capability{CapEnergyReporting}},
				{Production, "Resource manager dynamically boots or shuts down nodes to stay under power cap (summer only, enforced over ~30 min window). Interacts with job scheduler to avoid killing jobs. NEC implemented, works cooperatively with PBS Pro.",
					[]Capability{CapNodeOnOff, CapPowerCapping, CapSchedulerIntegration, CapVendorCollab}},
				{Production, "Resource manager shuts down nodes that have been idle for a long time.",
					[]Capability{CapNodeOnOff}},
				{Production, "Uses virtual machines to split compute nodes. (Complicates physical node shutdown.)", nil},
				{Production, "Energy use provided to users at end of every job",
					[]Capability{CapEnergyReporting}},
			},
		},
		{
			Name: "CEA", Long: "Commissariat à l'énergie atomique et aux énergies alternatives",
			Country: "France", Region: "Europe", Lat: 48.71, Lon: 2.15, TablePart: 1,
			Activities: []Activity{
				{Research, "Investigating how to use and apply mpi_yield_when_idle",
					[]Capability{CapDVFS}},
				{Research, "Investigating with BULL power capping and DVFS",
					[]Capability{CapPowerCapping, CapDVFS, CapVendorCollab}},
				{TechDev, "Together with BULL developing power adaptive scheduling in SLURM",
					[]Capability{CapSchedulerIntegration, CapVendorCollab}},
				{TechDev, "Developing 'layout logic' in SLURM, be able to tell what PDUs/Chillers a node or rack depends on and avoid scheduling jobs on them when maintenance",
					[]Capability{CapLayoutAware, CapSchedulerIntegration}},
				{Production, "Manually shutting down nodes to shift power budget between systems",
					[]Capability{CapNodeOnOff, CapInterSystemBudget}},
			},
		},
		{
			Name: "KAUST", Long: "King Abdullah University of Science and Technology",
			Country: "Saudi Arabia", Region: "Middle East", Lat: 22.31, Lon: 39.10, TablePart: 1,
			Activities: []Activity{
				{Research, "Monitoring and managing power usage under data center power and cooling limits",
					[]Capability{CapMonitoring, CapPowerCapping}},
				{TechDev, "Analyzing and detecting most power hungry applications in production. Developing optimal power limit constraint strategy for users on Shaheen Cray XC40, while maintaining several HPC systems in production (BG/P and clusters)",
					[]Capability{CapPrediction, CapPowerCapping}},
				{Production, "Static power capping via Cray CAPMC. 30% of nodes run uncapped, 70% run with 270 W power cap.",
					[]Capability{CapPowerCapping}},
				{Production, "Using SLURM Dynamic Power Management (SDPM) that interfaces with Cray CAPMC (KAUST worked with SchedMD to develop SDPM)",
					[]Capability{CapPowerCapping, CapSchedulerIntegration, CapVendorCollab}},
			},
		},
		{
			Name: "LRZ", Long: "Leibniz Supercomputing Centre",
			Country: "Germany", Region: "Europe", Lat: 48.26, Lon: 11.67, TablePart: 1,
			Activities: []Activity{
				{Research, "Investigating merging SLURM and GEOPM for system energy & power control.",
					[]Capability{CapDVFS, CapSchedulerIntegration}},
				{Research, "Investigating scheduling for power instead of energy",
					[]Capability{CapSchedulerIntegration}},
				{Research, "Linking job scheduler with IT infrastructure + cooling; scheduler may delay jobs when IT infrastructure is particularly inefficient",
					[]Capability{CapLayoutAware, CapSchedulerIntegration}},
				{TechDev, "Working on adding energy-aware scheduling capabilities to SLURM, similar to what they have with LoadLeveler today.",
					[]Capability{CapSchedulerIntegration, CapDVFS}},
				{Production, "First time new app runs: characterized for frequency, runtime and energy.",
					[]Capability{CapPrediction, CapDVFS}},
				{Production, "Administrator selects job scheduling goal, energy to solution or best performance.",
					[]Capability{CapDVFS, CapSchedulerIntegration}},
				{Production, "LRZ worked with IBM on energy-aware scheduling support in LoadLeveler, now ported to LSF.",
					[]Capability{CapVendorCollab, CapSchedulerIntegration}},
			},
		},
		{
			Name: "STFC", Long: "Science and Technology Facilities Council, Hartree Centre",
			Country: "United Kingdom", Region: "Europe", Lat: 53.34, Lon: -2.64, TablePart: 2,
			Activities: []Activity{
				{Research, "IBM/LSF energy-aware scheduling is experimented with on small-scale (360 node) system",
					[]Capability{CapSchedulerIntegration, CapDVFS, CapVendorCollab}},
				{Research, "Programmable interface (PowerAPI-based) for application power measurements of code segments (with interface to JSRM)",
					[]Capability{CapMonitoring}},
				{Research, "Investigation of power aware policies using higher level abstract e.g., GEOPM and Job Scheduler.",
					[]Capability{CapDVFS, CapSchedulerIntegration}},
				{TechDev, "Deployment of reporting tool for user power consumption at the job level. (Fine as well as coarse granularity)",
					[]Capability{CapEnergyReporting, CapMonitoring}},
				{Production, "Continuously collecting power and energy system monitoring info, data center, machine, and job levels",
					[]Capability{CapMonitoring}},
			},
		},
		{
			Name: "Trinity (LANL+Sandia)", Long: "Los Alamos & Sandia National Laboratories (ACES)",
			Country: "United States", Region: "United States", Lat: 35.88, Lon: -106.30, TablePart: 2,
			Activities: []Activity{
				{Research, "Analyzing power system monitoring info to assess potential of EPA scheduling, gather traces for evaluating EPA approaches.",
					[]Capability{CapMonitoring, CapPrediction}},
				{TechDev, "EPA job scheduling support developed with Adaptive Inc. for MOAB/Torque, interfaces with Cray CAPMC and Power API. Trinity is now using SLURM, but MOAB work remains available for future use.",
					[]Capability{CapSchedulerIntegration, CapPowerCapping, CapVendorCollab}},
				{TechDev, "Developed Power API implementation with Cray, utilized by MOAB/Torque for EPA job scheduling.",
					[]Capability{CapMonitoring, CapVendorCollab}},
				{Production, "Cray CAPMC power capping infrastructure, out-of-band control, administrator ability to set system-wide and node-level power caps (available on all Cray XC systems).",
					[]Capability{CapPowerCapping}},
			},
		},
		{
			Name: "CINECA", Long: "CINECA Interuniversity Consortium",
			Country: "Italy", Region: "Europe", Lat: 44.49, Lon: 11.27, TablePart: 2,
			Activities: []Activity{
				{Research, "Scalable power monitoring, used to predict per-job power use and used to generate predictive models for node power and temperature evolution (with University of Bologna)",
					[]Capability{CapMonitoring, CapPrediction}},
				{TechDev, "Developing together with E4 EPA job scheduling support in SLURM. Also tracking EPA SLURM work being done by BULL and SchedMD.",
					[]Capability{CapSchedulerIntegration, CapVendorCollab}},
				{Production, "EPA job scheduling on Eurora system (now decommissioned) using PBSPro, collaboration with Altair",
					[]Capability{CapSchedulerIntegration, CapVendorCollab}},
			},
		},
		{
			Name: "JCAHPC", Long: "Joint Center for Advanced HPC (U. Tsukuba + U. Tokyo)",
			Country: "Japan", Region: "Asia", Lat: 35.90, Lon: 139.94, TablePart: 2,
			Activities: []Activity{
				{Research, "Activities to facilitate Production Development.", nil},
				{Production, "Ability to set power caps for groups of nodes via the resource manager (Fujitsu proprietary product)",
					[]Capability{CapPowerCapping, CapVendorCollab}},
				{Production, "Manual emergency response, admin sets power cap.",
					[]Capability{CapEmergencyResponse, CapPowerCapping}},
				{Production, "Delivering post-job energy use reports to users.",
					[]Capability{CapEnergyReporting}},
			},
		},
	}
}
