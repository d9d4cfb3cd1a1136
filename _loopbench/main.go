// Command loopbench is the end-to-end benchmark of cmd/sessiond over
// loopback TCP. It builds the daemon from the module it sits in, starts it
// as a black box, hosts every member replica in this process through the
// same public calls cmd/cscwctl makes, drives an open-loop edit and join
// schedule fixed by -seed, checks that the replicas converged, and prints
// one JSON result line last.
//
//	loopbench --workload ot-group4|crdt-rooms-json|join-backlog|all
//	          --seed N --seconds S --trace 0|1 [--root DIR]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans and per-layer metrics instead and writes the spans to
// .bench_build/loopbench/trace-<workload>.jsonl. Every number is loopback
// wall-clock time on the machine it runs on, not netsim virtual time. The
// exit code is non-zero on any correctness failure or set-up error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// auditJoins is the number of final joins per round. On workloads without
// live joins they are the join metrics' sample.
const auditJoins = 8

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	window  time.Duration
	traced  bool
	rounds  int    // overrides the workload's rounds when > 0 (tests)
	audits  int    // final joins per round
	bin     string // sessiond binary
	dir     string // scratch directory for logs and traces
	verbose io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed for the edit and join schedule")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	root := fs.String("root", ".", "module root that holds cmd/sessiond")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "loopbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "loopbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	opt := options{
		seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		audits: auditJoins,
		dir:    filepath.Join(*root, ".bench_build", "loopbench"), verbose: stdout,
	}
	opt.bin = filepath.Join(opt.dir, "sessiond")
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	if err := buildDaemon(*root, opt.bin); err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "# machine:", fingerprint(), "| loopback wall-clock")
	code := 0
	for _, w := range ws {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(stderr, "loopbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "loopbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs the workload's rounds, each on a fresh daemon: set-up,
// a measured window of 1/rounds of the run, the final joins and the
// correctness gate. combine folds the rounds into one value per metric.
func runWorkload(w *workload, opt options) (*result, error) {
	out := opt.verbose
	res := &result{Metrics: make(map[string]metricValue)}
	var perRound [][]metric
	var trace *bufio.Writer
	tracePath := filepath.Join(opt.dir, "trace-"+w.name+".jsonl")
	if opt.traced {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		trace = bufio.NewWriter(f)
	}
	rounds := w.rounds
	if opt.rounds > 0 {
		rounds = opt.rounds
	}
	window := opt.window / time.Duration(rounds)
	for k := 0; k < rounds; k++ {
		// Each round draws its own schedule, fixed by the seed and round.
		sch := w.makeSchedule(opt.seed*1000+int64(k), window)
		b := newBench(w, k, sch, opt.traced)
		ms, err := b.runRound(opt, window)
		b.close()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		attempted, failed := b.outcome()
		res.Attempted += attempted
		res.Failed += failed
		fmt.Fprintf(out, "# %s round %d: window=%.3fs edits=%d joins=%d final-joins=%d failed=%d\n",
			w.name, k, ms.ws.seconds(), len(b.edits), len(b.joins), len(b.audits), failed)
		for _, m := range ms.metrics {
			if m.dist != nil {
				fmt.Fprintf(out, "#   %s=%.4g n=%d %s\n", m.name, m.value, m.n, m.tail())
			}
		}
		b.errMu.Lock()
		for _, err := range b.errs {
			fmt.Fprintln(out, "# FAIL:", err)
		}
		b.errMu.Unlock()
		if trace != nil {
			if err := b.writeTrace(trace); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
		perRound = append(perRound, ms.metrics)
	}
	if trace != nil {
		if err := trace.Flush(); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintln(out, "# spans:", tracePath)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "# %s seed=%d rounds=%d fail_ratio=%.6f (n = samples over all rounds)\n",
		w.name, opt.seed, rounds, float64(res.Failed)/float64(res.Attempted))
	for _, m := range combine(perRound, !opt.traced) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		fmt.Fprintf(out, "#   %-34s %14.4f %-6s n=%-7d %s\n", m.name, m.value, m.unit, m.n, m.tail())
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return res, nil
}

// roundResult is one round's metrics and window.
type roundResult struct {
	ws      windowStats
	metrics []metric
}

// runRound sets up, measures, audits and checks one round. The caller closes
// the bench.
func (b *bench) runRound(opt options, window time.Duration) (roundResult, error) {
	var rr roundResult
	setup, err := b.setup(opt.bin, opt.dir)
	if err != nil {
		return rr, fmt.Errorf("set-up: %w", err)
	}
	if rr.ws, err = b.measure(window); err != nil {
		return rr, err
	}
	b.audit(opt.audits)
	b.check()
	if opt.traced {
		rr.metrics, err = b.perLayer(rr.ws)
	} else {
		rr.metrics = b.endToEnd(rr.ws, setup)
	}
	return rr, err
}

// fingerprint names the machine the numbers were taken on.
func fingerprint() string {
	model := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range bytes.Split(info, []byte("\n")) {
			if k, v, ok := strings.Cut(string(line), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}
