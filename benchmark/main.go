// Command benchmark is the repository's benchmark: four fixed workloads
// that each stress a different layer of the verifier, end-to-end metrics
// from untraced runs, per-layer metrics from a traced run, and a check of
// every verified value against a reference.
//
// One workload, one run (the form BENCHMARK.json's command takes):
//
//	bash benchmark/run.sh --workload mult-sim --seed 1 --seconds 20 --trace 0
//
// prints the run's sample table on standard error and, as the last line
// of standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// An untraced run prints its per-round samples on the line before.
//
// Every workload, each run in its own child process, with each
// end-to-end metric's samples pooled over the runs:
//
//	bash benchmark/run.sh [-seed N] [-out FILE] [-spans FILE]
//
// Two result files against the bounds in BENCHMARK.json:
//
//	bash benchmark/run.sh -compare A.json B.json
//
// Rebuild the reference values after an intended input change:
//
//	bash benchmark/run.sh -regen-golden
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	quick      bool
	out        string
	spans      string
	compare    bool
	regen      bool
	serveBin   string
	specPath   string
	goldenPath string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result line (default: every workload in child processes)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; golden.json covers the default, other seeds check against an independent backend")
	flag.IntVar(&o.seconds, "seconds", 0, "measurement budget of one run (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "small input sizes (smoke tests)")
	flag.StringVar(&o.out, "out", "", "write the results of a full run to this JSON file")
	flag.StringVar(&o.spans, "spans", "", "write the traced runs' spans to this JSONL file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.BoolVar(&o.regen, "regen-golden", false, "rebuild golden.json (vacsem must agree with the oracle backends)")
	flag.StringVar(&o.serveBin, "serve-bin", "", "vacsem-serve binary (serve-mixed)")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark spec")
	flag.StringVar(&o.goldenPath, "golden", "benchmark/golden.json", "reference values")
	flag.Parse()
	os.Exit(dispatch(o))
}

func dispatch(o options) int {
	var err error
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
			break
		}
		var worse bool
		worse, err = compareFiles(os.Stdout, o.specPath, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			return 1
		}
	case o.regen:
		err = regenGolden(o.goldenPath)
	case o.workload != "":
		return runOne(o)
	default:
		var ok bool
		ok, err = orchestrate(o)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	return 0
}

// runOne runs one workload once and prints its result line. It exits 2
// without a result line when the run cannot be made, and 1 after the
// result line when a value was wrong.
func runOne(o options) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return fail(err)
	}
	if o.trace != 0 && o.trace != 1 {
		return fail(fmt.Errorf("--trace %d: want 0 or 1", o.trace))
	}
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return fail(err)
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if w.Serve && o.serveBin == "" {
		return fail(errors.New("serve-mixed needs -serve-bin"))
	}
	g, err := loadGolden(o.goldenPath)
	if err != nil {
		return fail(err)
	}
	res, err := run(runConfig{
		Spec: spec, Workload: w, Seed: o.seed, Budget: time.Duration(o.seconds) * time.Second,
		Trace: o.trace == 1, Quick: o.quick, ServeBin: o.serveBin,
		Golden: g, SpansPath: o.spans, Log: os.Stderr,
	})
	if err != nil {
		return fail(err)
	}
	if res.Samples != nil {
		line, err := json.Marshal(samplesLine{Samples: res.Samples})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostInfo describes the machine a result file was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if c, err := gitCommit(".git"); err == nil {
		h.Commit = c
	}
	return h
}

// gitCommit resolves HEAD of the checkout's own .git directory without
// running git (which would search parent directories).
func gitCommit(dir string) (string, error) {
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "", err
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)), nil
	}
	if c, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(c)), nil
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha, nil
		}
	}
	return "", fmt.Errorf("ref %s not found", ref)
}

// resultsFile is what a full run writes with -out and -compare reads.
type resultsFile struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Runs      int              `json:"runs"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]*metricRuns `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// samplesLine carries a run's per-round samples to the orchestrating
// process, which pools them over runs.
type samplesLine struct {
	Samples map[string][]float64 `json:"samples"`
}

// metricRuns holds one end-to-end metric's samples pooled over runs.
type metricRuns struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	summary
}

// untracedRuns is how many untraced runs of each workload a full run
// pools its end-to-end samples over.
const untracedRuns = 3

// orchestrate runs every workload of BENCHMARK.json: untracedRuns
// untraced runs and one traced run each, every run in its own child
// process so that peak memory, the metrics registry, GC state and
// process-wide caches do not carry over. It reports whether every value
// was correct.
func orchestrate(o options) (bool, error) {
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return false, err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.spans != "" {
		if err := os.WriteFile(o.spans, nil, 0o644); err != nil {
			return false, err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	res := resultsFile{Seed: o.seed, Seconds: o.seconds, Runs: untracedRuns, Host: readHost()}
	allOK := true
	for _, sw := range spec.Workloads {
		wr := workloadResult{
			Name: sw.Name, Correct: true,
			EndToEnd: make(map[string]*metricRuns), PerLayer: make(map[string]metricValue),
		}
		record := func(out *outcome) {
			wr.Attempted += out.Attempted
			wr.Failed += out.Failed
			wr.Correct = wr.Correct && out.Correct
		}
		for i := 0; i < untracedRuns; i++ {
			out, err := child(self, o, sw.Name, o.seconds, 0)
			if err != nil {
				return false, err
			}
			record(out)
			for _, m := range spec.EndToEnd {
				mr := wr.EndToEnd[m.Name]
				if mr == nil {
					mr = &metricRuns{Unit: m.Unit}
					wr.EndToEnd[m.Name] = mr
				}
				mr.Samples = append(mr.Samples, out.Samples[m.Name]...)
				mr.summary = summarize(mr.Samples)
			}
		}
		// The traced run only needs enough rounds for stable medians.
		out, err := child(self, o, sw.Name, max(1, o.seconds/2), 1)
		if err != nil {
			return false, err
		}
		record(out)
		wr.PerLayer = out.Metrics
		allOK = allOK && wr.Correct
		res.Workloads = append(res.Workloads, wr)
	}
	writeSummary(os.Stdout, spec, &res)
	if o.out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

// child runs one workload in a child process and parses its result line.
func child(self string, o options, workload string, seconds, trace int) (*outcome, error) {
	args := []string{
		"-serve-bin", o.serveBin, "-spec", o.specPath, "-golden", o.goldenPath,
		"--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if trace == 1 && o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	fmt.Fprintf(os.Stderr, "== %s trace=%d\n", workload, trace)
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	out, err := lastLine(&stdout)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return out, nil
}

// lastLine parses the result line a run prints last, and the samples
// line before it when there is one.
func lastLine(r io.Reader) (*outcome, error) {
	var prev, last string
	lines := bufio.NewScanner(r)
	lines.Buffer(make([]byte, 64<<10), 16<<20)
	for lines.Scan() {
		if s := strings.TrimSpace(lines.Text()); s != "" {
			prev, last = last, s
		}
	}
	if last == "" {
		return nil, errors.New("no result line")
	}
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	var sl samplesLine
	if json.Unmarshal([]byte(prev), &sl) == nil {
		out.Samples = sl.Samples
	}
	return &out, nil
}

// writeSummary prints every end-to-end metric of a full run by name and
// unit, with the median, quartiles and count of its samples pooled over
// the runs.
func writeSummary(w io.Writer, spec *benchSpec, res *resultsFile) {
	fmt.Fprintf(w, "seed %d, %d s per run, %d runs; %s, %d CPUs, %s, commit %s\n",
		res.Seed, res.Seconds, res.Runs, res.Host.CPUModel, res.Host.NProc, res.Host.GoVersion, res.Host.Commit)
	fmt.Fprintf(w, "%-13s %-12s %-5s %12s %12s %12s %3s %8s\n", "workload", "metric", "unit", "median", "q1", "q3", "n", "spread")
	for _, wr := range res.Workloads {
		for _, m := range spec.EndToEnd {
			mr := wr.EndToEnd[m.Name]
			if mr == nil {
				continue
			}
			fmt.Fprintf(w, "%-13s %-12s %-5s %12.4f %12.4f %12.4f %3d %7.1f%%\n",
				wr.Name, m.Name, mr.Unit, mr.Median, mr.Q1, mr.Q3, mr.N, 100*mr.spread())
		}
		fmt.Fprintf(w, "%-13s correct=%v attempted=%d failed=%d\n", wr.Name, wr.Correct, wr.Attempted, wr.Failed)
	}
}
