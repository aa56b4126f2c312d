// Command perfbench is the repository's host-throughput benchmark. It runs
// one workload through the experiment registry as a closed loop of engine
// workers, checks every scenario's counter snapshot against the digests
// committed under digests/, and prints its metrics by name with their
// units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 it reports the end-to-end metrics, with every time
// rescaled to a fixed host speed (see hostspeed.go); with -trace 1 a
// separate traced run reports the per-layer metrics (see metrics.go).
// Simulated statistics are behaviour, not metrics: the digest check pins
// them, and a mismatch counts as a failed scenario.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 _perfbench/run.py --workload suite --seed 11 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	workers    int
	size       string
	digestSeed string
	cpuProfile string
	out        string
	record     string
	setupOnly  bool
}

// setupProbes is how many fresh-process set-ups a -trace 0 run times;
// setup_s is their median.
const setupProbes = 5

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "suite", "workload: suite, fault-path or host-churn")
	flag.Int64Var(&o.seed, "seed", sim.DefaultSeed, "simulation seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement budget: passes start while the next is expected to end within it")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.IntVar(&o.workers, "workers", 1, "engine workers, and GOMAXPROCS (0, or more than nproc, means nproc)")
	flag.StringVar(&o.size, "size", "full", "sizing: full, or tiny for the self-test")
	flag.StringVar(&o.digestSeed, "digest-seed", "", "check against the committed digests of this seed instead of -seed (self-check of the gate)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured (or traced) passes to this file")
	flag.StringVar(&o.out, "out", "", "append the full result record, with its environment stamp, to this JSON Lines file")
	flag.StringVar(&o.record, "record", "", "record this seed's digests into the workload's digest file in this directory")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "perform set-up, then exit (how setup_s is timed)")
	flag.Parse()

	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if res == nil {
		return
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. summary() is the contract line; the whole
// record, environment stamp included, goes to -out.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      int                    `json:"trace"`
	Env        envStamp               `json:"env"`
	Digests    string                 `json:"digests"`
	Passes     int                    `json:"passes"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Metrics    map[string]metricValue `json:"metrics"`
	// PassWall lists every measured pass's makespan in seconds as the
	// clock read it, PassSpeed the host's speed over it (see hostSpeed).
	PassWall  []float64 `json:"pass_wall_s,omitempty"`
	PassSpeed []float64 `json:"pass_host_speed,omitempty"`
}

func (r *result) summary() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// envStamp records where a result was measured.
type envStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
	Size       string `json:"size"`
}

func stamp(workers int, size string) envStamp {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return envStamp{
		CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workers: workers, Size: size,
	}
}

func run(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	w, err := lookupWorkload(o.workload, o.size, o.seed)
	if err != nil {
		return nil, err
	}
	if nproc := runtime.NumCPU(); o.workers <= 0 || o.workers > nproc {
		o.workers = nproc
	}
	// One Go thread per worker. On a few shared cores a second busy
	// thread, a worker's or the collector's, makes the figures depend on
	// what else the host runs more than on the simulator.
	runtime.GOMAXPROCS(o.workers)
	if o.setupOnly {
		_, err := setup(ctx, w, o)
		return nil, err
	}

	var setupTimes []float64
	if o.trace == 0 {
		if setupTimes, err = probeSetup(o); err != nil {
			return nil, err
		}
	}
	gate, err := setup(ctx, w, o)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: o.seed, Trace: o.trace,
		Env: stamp(o.workers, o.size), Digests: gate.source,
		Metrics: map[string]metricValue{},
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d workers=%d gomaxprocs=%d nproc=%d %s cpu=%q digests=%s\n",
		w.name, o.seed, o.trace, o.workers, res.Env.GOMAXPROCS, res.Env.NProc, res.Env.GoVersion, res.Env.CPU, gate.source)

	eng := engine.New(o.workers)
	stopProfile, err := startProfile(o.cpuProfile)
	if err != nil {
		return nil, err
	}
	var passes []passStats
	if o.trace == 0 {
		start := time.Now()
		for {
			p := runPass(ctx, w, eng, o.seed, gate, false)
			passes = append(passes, p)
			fmt.Fprintf(stdout, "  pass %d: %.3fs  host speed %.3f  %.3fs at nominal  %d scenarios  %d failed\n",
				len(passes), p.wall.Seconds(), p.speed, p.wall.Seconds()*p.speed, p.attempted, p.failed)
			// Self-consistency needs a second pass to compare against.
			if gate.selfCheck && o.record == "" && len(passes) < 2 {
				continue
			}
			if time.Since(start).Seconds()+p.wall.Seconds() > o.seconds {
				break
			}
		}
		endToEndMetrics(res, passes, setupTimes)
	} else {
		traced := runPass(ctx, w, eng, o.seed, gate, true)
		passes = append(passes, traced)
		layers, err := measureLayers(w, stdout)
		if err != nil {
			return nil, err
		}
		perLayerMetrics(res, traced, layers, o.workers)
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Passes = len(passes)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.FailedFrac = ratio(float64(res.Failed), float64(res.Attempted))
	for _, m := range gate.mismatches {
		fmt.Fprintf(stdout, "  FAILED %s\n", m)
	}
	fmt.Fprintf(stdout, "  failed_frac %g (%d of %d scenarios)\n", res.FailedFrac, res.Failed, res.Attempted)
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		moves := ""
		if d.moves != "" {
			moves = fmt.Sprintf("  (should move %s on %s)", d.moves, d.on)
		}
		fmt.Fprintf(stdout, "  %-32s %14.6g %-5s%s\n", d.name, res.Metrics[d.name].Value, d.unit, moves)
	}
	if o.record != "" {
		if err := record(o.record, w.name, o.seed, passes[0].digests); err != nil {
			return nil, err
		}
	}
	if o.out != "" {
		if err := appendJSONL(o.out, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// gate is the correctness check: committed digests for the seed when
// they exist, otherwise the first pass's digests (self-consistency).
type gate struct {
	want       map[string]string
	source     string
	selfCheck  bool
	mismatches []string
}

// setup is everything a run does before its first measured pass: load
// the expected digests and warm up on one scenario of the workload.
func setup(ctx context.Context, w benchWorkload, o options) (*gate, error) {
	file, err := loadDigests(w.name)
	if err != nil {
		return nil, err
	}
	g := &gate{}
	seed := o.seed
	if o.digestSeed != "" {
		if seed, err = strconv.ParseInt(o.digestSeed, 10, 64); err != nil {
			return nil, fmt.Errorf("-digest-seed: %w", err)
		}
	}
	if o.size == "full" && o.record == "" {
		g.want = file.expected(seed)
	}
	if g.want != nil {
		g.source = fmt.Sprintf("committed(seed=%d)", seed)
	} else {
		g.selfCheck = true
		g.source = "self-consistency"
	}
	if _, err := sim.RunCtx(ctx, w.warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return g, nil
}

// probeSetup times set-up in fresh processes, from process start to
// exit, so setup_s includes the runtime's own start-up. Each time is
// rescaled to nominal host speed by reference samples just before and
// after its probe.
func probeSetup(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed, 10), "-size", o.size,
			"-workers", strconv.Itoa(o.workers))
		cmd.Stderr = os.Stderr
		before := refSample()
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		t := time.Since(start).Seconds()
		times = append(times, t*refNominal/((before+refSample())/2))
	}
	return times, nil
}

type passStats struct {
	// wall and cpu leave out the reference kernel's samples; speed is
	// the host's speed over the pass relative to refNominal.
	wall, cpu         time.Duration
	speed             float64
	accesses          uint64
	attempted, failed int
	digests           map[string]string
	// Traced passes only.
	counters    map[string]uint64
	migrateMS   int64
	allocBytes  uint64
	gcCycles    uint32
	scenarioMS  []float64
	scenarioSum time.Duration
}

// runPass runs every step of w once through eng and checks each
// scenario's digest against the gate.
func runPass(ctx context.Context, w benchWorkload, eng *engine.Engine, seed int64, g *gate, traced bool) passStats {
	p := passStats{digests: map[string]string{}}
	if traced {
		p.counters = map[string]uint64{}
	}
	var events []engine.Event
	var stepOf []string
	curStep := ""
	// refs[i] and refs[i+1] time the reference kernel just before and
	// just after the i-th scenario: the engine calls OnEvent on the
	// worker, before it takes the next scenario.
	var refs []float64
	refSpent := 0.0
	eng.OnEvent = func(ev engine.Event) {
		// Engine callbacks are serialized; one step runs at a time.
		events = append(events, ev)
		stepOf = append(stepOf, curStep)
		r := refSample()
		refs = append(refs, r)
		refSpent += r
	}
	defer func() { eng.OnEvent = nil }()

	// Start every pass from a collected heap, so no pass pays for garbage
	// the previous one left.
	runtime.GC()
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	refs = append(refs, refSample())
	stepErrs := map[string]error{}
	for _, st := range w.steps {
		curStep = st.name
		col := &obs.Collector{}
		stepStart := time.Now()
		cpu0 := cpuTime()
		if err := st.run(ctx, eng, col, seed); err != nil {
			stepErrs[st.name] = err
		}
		for _, rec := range col.Records() {
			key := st.name + ":" + rec.Set + "/" + rec.Scenario
			p.digests[key] = digest(rec)
			if n, ok := rec.Counters.Get("machine.accesses"); ok {
				p.accesses += n
			}
			if traced {
				addCounters(p.counters, rec.Counters)
				if st.name == "migration" {
					p.migrateMS += rec.ElapsedMS
				}
			}
		}
		p.wall += time.Since(stepStart)
		p.cpu += cpuTime() - cpu0
	}
	spent := time.Duration(refSpent * 1e9)
	p.wall -= spent
	p.cpu -= spent
	p.speed = hostSpeed(events, refs)
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		p.gcCycles = ms1.NumGC - ms0.NumGC
		for _, ev := range events {
			p.scenarioMS = append(p.scenarioMS, float64(ev.Elapsed.Nanoseconds())/1e6)
			p.scenarioSum += ev.Elapsed
		}
	}

	// Correctness: a scenario passes when it ran without error, emitted a
	// record, and (once a reference exists) its digest matches.
	seen := map[string]bool{}
	failedSteps := map[string]bool{}
	for i, ev := range events {
		key := stepOf[i] + ":" + ev.Set + "/" + ev.Scenario
		seen[key] = true
		p.attempted++
		got, ok := p.digests[key]
		reason := ""
		switch {
		case ev.Err != nil:
			reason = ev.Err.Error()
		case !ok:
			reason = "no RunRecord"
		case g.want != nil && g.want[key] != got:
			reason = fmt.Sprintf("digest %s, want %q", got, g.want[key])
		}
		if reason != "" {
			p.failed++
			failedSteps[stepOf[i]] = true
			g.note(key + ": " + reason)
		}
	}
	for key := range g.want {
		if !seen[key] {
			p.attempted++
			p.failed++
			g.note(key + ": not run")
		}
	}
	for name, err := range stepErrs {
		if !failedSteps[name] {
			p.attempted++
			p.failed++
			g.note(name + ": " + err.Error())
		}
	}
	if g.want == nil {
		g.want = p.digests
	}
	return p
}

// note records a failure; only the first few are kept for printing.
func (g *gate) note(msg string) {
	if len(g.mismatches) < 10 {
		g.mismatches = append(g.mismatches, msg)
	}
}

// addCounters sums a snapshot into agg, folding per-VM counters
// (vm<i>.name) into their unprefixed name.
func addCounters(agg map[string]uint64, s obs.Snapshot) {
	s.Each(func(name string, v uint64) {
		if strings.HasPrefix(name, "vm") {
			if i := strings.IndexByte(name, '.'); i > 2 {
				if _, err := strconv.Atoi(name[2:i]); err == nil {
					name = name[i+1:]
				}
			}
		}
		agg[name] += v
	})
}

// endToEndMetrics reports each timed metric at nominal host speed, as its
// median over the passes.
func endToEndMetrics(res *result, passes []passStats, setupTimes []float64) {
	var wall, rate, cpu []float64
	for _, p := range passes {
		res.PassWall = append(res.PassWall, p.wall.Seconds())
		res.PassSpeed = append(res.PassSpeed, p.speed)
		w := p.wall.Seconds() * p.speed
		wall = append(wall, w)
		rate = append(rate, ratio(float64(p.accesses), w))
		cpu = append(cpu, ratio(p.cpu.Seconds()*p.speed, float64(p.accesses)/1e6))
	}
	v := map[string]float64{
		"wall_s":            median(wall),
		"accesses_per_s":    median(rate),
		"cpu_s_per_maccess": median(cpu),
		"peak_rss_mb":       peakRSSMB(),
		"setup_s":           median(setupTimes),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func appendJSONL(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
