package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/constrain"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/redteam"
	"repro/internal/sta"
)

// The offline phases run in a child process of the benchmark, so that the
// child's VmHWM is the phase's own peak memory. Their inputs are fixed:
// the gates compare against committed records that only a fixed instance
// can have.

//go:embed expected/paper_tables.txt
var expectedTables string

//go:embed expected/attack.json
var expectedAttackJSON []byte

// offlineResult is what the child reports on its last stdout line.
type offlineResult struct {
	SetupS   float64            `json:"setup_s"`
	WallS    float64            `json:"wall_s"`
	RSSMB    float64            `json:"rss_mb"`
	Failures []string           `json:"failures"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

// runOffline runs the benchmark binary as a child in offline mode and
// decodes its result.
func runOffline(ctx context.Context, mode string, trace bool, out string) (*offlineResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-offline", mode, "-out", out}
	if trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("offline %s: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res offlineResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("offline %s result: %w", mode, err)
	}
	return &res, nil
}

// offlineMain is the child's entry point: "paper", "attack", or (traced
// runs) "all", which measures both phases' layers.
func offlineMain(mode string, trace bool) error {
	res := &offlineResult{Layers: map[string]float64{}}
	rec := newRecorder(trace)
	var err error
	switch mode {
	case "paper":
		err = paperPhase(res, rec)
	case "attack":
		err = attackPhase(res, rec)
	case "all":
		if err = attackPhase(res, rec); err == nil {
			err = paperPhase(res, rec)
		}
	default:
		err = fmt.Errorf("unknown offline mode %q", mode)
	}
	if err != nil {
		return err
	}
	hwm, err := procField(os.Getpid(), "VmHWM")
	if err != nil {
		return err
	}
	res.RSSMB = float64(hwm) / 1024
	if trace {
		for k, v := range rec.values {
			res.Layers[k] = v
		}
		// Suite passes are reported as totals, since they add up to the
		// tables' wall time; per-copy layers as medians.
		for _, span := range []string{"experiments.table2", "experiments.table3", "experiments.fig7",
			"core.analyze_suite", "sta.analyze", "power.estimate", "constrain.reactive",
			"redteam.attack", "redteam.attack_unhardened"} {
			res.Layers[span+"_ms"] = rec.sum(span)
		}
		res.Layers["core.harden_ms"] = median(rec.durations("core.harden"))
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// paperTables runs Table II, Table III and Fig. 7 over the full suite and
// renders them; the rendering is byte-identical at any job count.
func paperTables(jobs int, rec *recorder) (string, error) {
	lib := cell.Default()
	sp := rec.start("experiments.table2", 0, 0)
	t2, err := experiments.RunTable2(nil, lib, jobs)
	sp.end()
	if err != nil {
		return "", err
	}
	sp = rec.start("experiments.table3", 0, 0)
	t3, err := experiments.RunTable3(nil, nil, lib, 1, jobs)
	sp.end()
	if err != nil {
		return "", err
	}
	sp = rec.start("experiments.fig7", 0, 0)
	f7, err := experiments.RunFig7(nil, t3, lib, jobs)
	sp.end()
	if err != nil {
		return "", err
	}
	return experiments.FormatTable2(t2) + experiments.FormatTable3(t3) + experiments.FormatFig7(f7), nil
}

// paperPhase: set-up is suite generation; the timed work is the paper's
// tables with one worker per CPU; the gate is the committed rendering.
func paperPhase(res *offlineResult, rec *recorder) error {
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, s := range bench.Suite() {
			s.Build()
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.SetupS += median(setups)

	jobs := runtime.NumCPU()
	cpu0 := cpuTime()
	t0 := time.Now()
	tables, err := paperTables(jobs, rec)
	if err != nil {
		return err
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	res.WallS += wall.Seconds()
	if tables != expectedTables {
		res.Failures = append(res.Failures, "paper tables differ from perfbench/expected/paper_tables.txt")
	}
	if !rec.on {
		return nil
	}

	// Worker occupancy: the CPU time the tables used against the wall time
	// their workers had.
	rec.value("par.busy_ratio", cpu.Seconds()/(float64(jobs)*wall.Seconds()))

	// A serial per-circuit pass through the layers the tables fan out.
	lib := cell.Default()
	trials := 0
	for i, s := range bench.Suite() {
		c := s.Build()
		sp := rec.start("core.analyze_suite", i, 0)
		a, err := core.Analyze(c, core.DefaultOptions(lib))
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.start("sta.analyze", i, 0)
		_, err = sta.Analyze(c, lib)
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.start("power.estimate", i, 0)
		_, err = power.Estimate(c, lib)
		sp.end()
		if err != nil {
			return err
		}
		sp = rec.start("constrain.reactive", i, 0)
		r, err := constrain.Reactive(a, core.FullAssignment(a), constrain.Options{
			Library: lib, DelayBudget: 0.10, Seed: experiments.DeriveSeed(1, s.Name, 0), Workers: 1,
		})
		sp.end()
		if err != nil {
			return err
		}
		trials += r.STACalls
	}
	rec.value("constrain.trials", float64(trials))
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// attackSummary is the gated part of one redteam attack.
type attackSummary struct {
	FingerprintBits     int  `json:"fingerprint_bits"`
	BitsRecovered       int  `json:"bits_recovered"`
	IOIndistinguishable bool `json:"io_indistinguishable"`
	Subset              bool `json:"subset"`
}

// expectedAttack is the committed outcome record for the attack phase.
type expectedAttack struct {
	Circuit    string        `json:"circuit"`
	Unhardened attackSummary `json:"unhardened"`
	Hardened   attackSummary `json:"hardened"`
}

// attackInputs is the attack phase's set-up product: the analysed master,
// the coalition's fingerprints, and their unhardened and hardened copies.
type attackInputs struct {
	a        *core.Analysis
	asgs     []core.Assignment
	plain    []*circuit.Circuit
	hardened []*circuit.Circuit
}

// attackSetup generates the c880-class master and embeds the coalition's
// copies, plain and hardened with redteam.DefaultSpec()'s decoys.
func attackSetup(circuitName string, rec *recorder) (*attackInputs, error) {
	sp := redteam.DefaultSpec()
	spec, err := bench.ByName(circuitName)
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		return nil, err
	}
	in := &attackInputs{a: a}
	// K fingerprints over the first 24 bits; copy 0 owns bit 0 and copy 1
	// lacks it, so at least one slot differs across the coalition.
	w := min(a.BitCapacity(), 24)
	rng := rand.New(rand.NewSource(sp.Seed*7919 + 17))
	for i := 0; i < sp.K; i++ {
		bits := make([]bool, a.BitCapacity())
		for j := 0; j < w; j++ {
			bits[j] = rng.Intn(2) == 0
		}
		bits[0] = i == 0
		asg, err := a.AssignmentFromBits(bits)
		if err != nil {
			return nil, err
		}
		in.asgs = append(in.asgs, asg)
		cp, err := core.Embed(a, asg)
		if err != nil {
			return nil, err
		}
		in.plain = append(in.plain, cp)
		ho := sp.HardenOptions()
		ho.Seed += int64(i) * 101 // distinct decoys per buyer
		s := rec.start("core.harden", i, 0)
		hc, decoys, err := core.EmbedHardened(a, asg, ho)
		s.end()
		if err != nil {
			return nil, err
		}
		if len(decoys) == 0 {
			return nil, fmt.Errorf("hardening inserted no decoys")
		}
		in.hardened = append(in.hardened, hc)
	}
	return in, nil
}

func summarize(rep *redteam.AttackReport, ev *redteam.Evaluation) attackSummary {
	return attackSummary{
		FingerprintBits:     ev.FingerprintBits,
		BitsRecovered:       ev.BitsRecovered,
		IOIndistinguishable: rep.IOIndistinguishable,
		Subset:              ev.Subset,
	}
}

// satCounter reads one of the solver's process-wide counters.
func satCounter(name string) int64 {
	for _, m := range obs.Snapshot(false) {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// attackPhase: set-up is generation, embedding and hardening; the timed
// work is redteam.Attack on the plain coalition, then on the hardened one
// under twice the plain strip effort plus slack; the gate is the committed
// outcome record.
func attackPhase(res *offlineResult, rec *recorder) error {
	var want expectedAttack
	if err := json.Unmarshal(expectedAttackJSON, &want); err != nil {
		return fmt.Errorf("expected/attack.json: %w", err)
	}
	var setups []float64
	var in *attackInputs
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		r := rec
		if rep > 0 {
			r = newRecorder(false) // hardening spans from the first set-up only
		}
		var err error
		if in, err = attackSetup(want.Circuit, r); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.SetupS += median(setups)

	opts := redteam.DefaultSpec().AttackOptions()
	c0, p0 := satCounter("sat.conflicts"), satCounter("sat.propagations")
	t0 := time.Now()
	sp := rec.start("redteam.attack_unhardened", 0, 0)
	repU, err := redteam.Attack(in.plain, opts)
	sp.end()
	if err != nil {
		return err
	}
	hOpts := opts
	hOpts.TotalBudget = 2*repU.StripConflicts + 1000
	sp = rec.start("redteam.attack", 1, 0)
	repH, err := redteam.Attack(in.hardened, hOpts)
	sp.end()
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	res.WallS += wall.Seconds()
	conflicts, props := satCounter("sat.conflicts")-c0, satCounter("sat.propagations")-p0

	got := expectedAttack{
		Circuit:    want.Circuit,
		Unhardened: summarize(repU, redteam.Evaluate(in.a, in.asgs[0], repU)),
		Hardened:   summarize(repH, redteam.Evaluate(in.a, in.asgs[0], repH)),
	}
	if got != want {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		res.Failures = append(res.Failures, fmt.Sprintf("attack outcome %s, expected %s", g, w))
	}
	if rec.on {
		rec.value("redteam.dip_conflicts", float64(repH.DIPConflicts))
		rec.value("redteam.strip_conflicts", float64(repH.StripConflicts))
		rec.value("sat.conflicts_per_s", float64(conflicts)/wall.Seconds())
		if conflicts > 0 {
			rec.value("sat.propagations_per_conflict", float64(props)/float64(conflicts))
		}
	}
	return nil
}
