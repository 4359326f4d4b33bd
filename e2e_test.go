package vacsem_test

// End-to-end tests of the command-line tools: build the binaries into a
// temp dir, generate circuits with circgen, verify them with vacsem,
// and sanity-check vacsem-bench output.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// command builds a child process that cannot outlive the test binary:
// when `go test -timeout` sets a deadline, the child is killed 30 s
// before it, and WaitDelay bounds the wait for its output pipes after
// the kill, so a hung CLI fails its test instead of surviving the
// binary's exit.
func command(t *testing.T, name string, args ...string) *exec.Cmd {
	t.Helper()
	ctx := context.Background()
	if deadline, ok := t.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline.Add(-30*time.Second))
		t.Cleanup(cancel)
	}
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// buildTools compiles the three commands once per test binary run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"vacsem", "circgen", "vacsem-bench"} {
		out := filepath.Join(dir, tool)
		cmd := command(t, "go", "build", "-o", out, "./cmd/"+tool)
		cmd.Dir = mustModuleRoot(t)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func mustModuleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := command(t, bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	work := t.TempDir()

	// 1. Generate an exact adder and approximate versions in BLIF.
	out := run(t, filepath.Join(bin, "circgen"),
		"-name", "adder8", "-approx", "2", "-budget", "0.02", "-o", work)
	if !strings.Contains(out, "adder8.blif") {
		t.Fatalf("circgen output unexpected:\n%s", out)
	}

	// 2. Verify ER with all engines; values must agree.
	values := map[string]string{}
	for _, method := range []string{"vacsem", "dpll", "enum", "bdd"} {
		out := run(t, filepath.Join(bin, "vacsem"),
			"-metric", "er",
			"-exact", filepath.Join(work, "adder8.blif"),
			"-approx", filepath.Join(work, "adder8_apx0.blif"),
			"-method", method, "-v")
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "value      :") {
				values[method] = strings.TrimSpace(strings.TrimPrefix(line, "value      :"))
			}
		}
		if values[method] == "" {
			t.Fatalf("%s: no value line in output:\n%s", method, out)
		}
	}
	for m, v := range values {
		if v != values["enum"] {
			t.Errorf("method %s value %s != enum %s", m, v, values["enum"])
		}
	}

	// 3. MED through AIGER files.
	run(t, filepath.Join(bin, "circgen"), "-name", "mult4", "-format", "aag",
		"-o", filepath.Join(work, "mult4.aag"))
	run(t, filepath.Join(bin, "circgen"), "-name", "mult4", "-format", "aag",
		"-o", filepath.Join(work, "mult4b.aag"))
	medOut := run(t, filepath.Join(bin, "vacsem"),
		"-metric", "med",
		"-exact", filepath.Join(work, "mult4.aag"),
		"-approx", filepath.Join(work, "mult4b.aag"))
	if !strings.Contains(medOut, "value      : 0\n") {
		t.Errorf("identical multipliers should have MED 0:\n%s", medOut)
	}

	// 4. Threshold metric.
	thrOut := run(t, filepath.Join(bin, "vacsem"),
		"-metric", "thr", "-threshold", "3",
		"-exact", filepath.Join(work, "adder8.blif"),
		"-approx", filepath.Join(work, "adder8_apx1.blif"))
	if !strings.Contains(thrOut, "P(dev>3)") {
		t.Errorf("threshold metric output unexpected:\n%s", thrOut)
	}

	// 5. vacsem-bench table 3 (fast inventory).
	benchOut := run(t, filepath.Join(bin, "vacsem-bench"), "-table", "3")
	for _, want := range []string{"adder128", "mult16", "sin"} {
		if !strings.Contains(benchOut, want) {
			t.Errorf("bench table 3 missing %s:\n%s", want, benchOut)
		}
	}
}

func TestCLISuiteGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	work := t.TempDir()
	out := run(t, filepath.Join(bin, "circgen"), "-suite", "-o", work)
	files, err := filepath.Glob(filepath.Join(work, "*.blif"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 20 {
		t.Errorf("suite generated %d files, want 20\n%s", len(files), out)
	}
	// Round-trip one of them through the verifier (self-ER must be 0).
	dec := filepath.Join(work, "dec.blif")
	verOut := run(t, filepath.Join(bin, "vacsem"), "-metric", "er",
		"-exact", dec, "-approx", dec)
	if !strings.Contains(verOut, "value      : 0\n") {
		t.Errorf("self-ER of dec not 0:\n%s", verOut)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	// Missing flags must exit non-zero.
	cmd := command(t, filepath.Join(bin, "vacsem"))
	if err := cmd.Run(); err == nil {
		t.Error("vacsem without flags should fail")
	}
	cmd = command(t, filepath.Join(bin, "circgen"), "-name", "bogus", "-o", "/tmp/x.blif")
	if err := cmd.Run(); err == nil {
		t.Error("circgen with unknown benchmark should fail")
	}
	cmd = command(t, filepath.Join(bin, "vacsem-bench"), "-table", "99")
	if err := cmd.Run(); err == nil {
		t.Error("vacsem-bench with unknown table should fail")
	}
}
