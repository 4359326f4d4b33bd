package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/blif"
	"vacsem/internal/circuit"
	"vacsem/internal/gen"
)

// runCLI runs the command in-process with args and returns its exit
// code.
func runCLI(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"vacsem"}, args...)
	flag.CommandLine = flag.NewFlagSet("vacsem", flag.ContinueOnError)
	return run()
}

// writePair writes an 8-bit adder and its lower-OR approximation as
// BLIF files into dir.
func writePair(t *testing.T, dir string) (exact, approx string) {
	t.Helper()
	write := func(name string, c *circuit.Circuit) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := blif.Write(f, c); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("adder8.blif", gen.RippleCarryAdder(8)),
		write("adder8_apx.blif", als.LowerORAdder(8, 3))
}

// A teardown failure (here: the heap profile cannot be created) must
// make the command exit non-zero even though verification succeeded.
func TestTeardownErrorExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	exact, approx := writePair(t, dir)
	if code := runCLI(t, "-metric", "er", "-exact", exact, "-approx", approx); code != 0 {
		t.Fatalf("plain run exit code %d, want 0", code)
	}
	mem := filepath.Join(dir, "missing", "mem.out")
	if code := runCLI(t, "-metric", "er", "-exact", exact, "-approx", approx, "-memprofile", mem); code == 0 {
		t.Error("-memprofile under a missing directory: exit code 0, want non-zero")
	}
}
