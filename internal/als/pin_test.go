package als

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"vacsem/internal/blif"
	"vacsem/internal/circuit"
	"vacsem/internal/gen"
)

// pinnedALS holds, per exact circuit, the SHA-256 of the BLIF text of
// every Approximate run in pinConfigs, concatenated in order. The hashes
// were recorded from the whole-circuit scorer that incremental scoring
// replaced; Approximate must keep reproducing them byte for byte, since
// benchmark workloads and circgen suites are built from its output.
var pinnedALS = map[string]string{
	"adder6":      "7285a9272d79ac4638e9aa8d075356c2c7ca97bec84764a6271b82229dee645d",
	"adder7":      "ebdf8e7ce86dbb50e8a533db2cd31fc81189e6b3f3783aa7040aa17a00d7a8cb",
	"adder8":      "96d3bac61ed72a875800a3ad286d4feeec2cecbd16126bd79f568479954e6120",
	"adder9":      "d741b1181311d0f8de0c27881f3cb9c4ef0fc6a3a59f509d284b8341cd205284",
	"adder10":     "7f8062852b425fbf7a6a2b983fcb647a3e657be925da299370d704a8315dea7b",
	"mult4":       "4204d956c5faee0968ab351df9870196938976bc8853ee554660a5472e328683",
	"mult5":       "84e662b72c9d8f555acc7d3f2443d60d338cd40a88c35e61af838eecbe006af3",
	"mult6":       "a919159b4167aa8be96cabcbd7c17002d9c0edb56676b5579570d3e578480a12",
	"suite/mult6": "2756ddc30ac97186cc403ff25d2fdd1bc949bde6968c933b7c9a1989affab171",
}

// pinConfigs are the configurations pinned per exact circuit: both
// budgets of serve-mixed and the suite, one to three moves, with and
// without RequireError, each under its own seed.
func pinConfigs(salt int64) []Config {
	var cfgs []Config
	for _, req := range []bool{false, true} {
		for _, target := range []float64{0.01, 0.05} {
			for moves := 1; moves <= 3; moves++ {
				cfgs = append(cfgs, Config{
					Seed:         salt*100 + int64(len(cfgs)),
					TargetER:     target,
					MaxMoves:     moves,
					RequireError: req,
				})
			}
		}
	}
	return cfgs
}

func blifHash(t *testing.T, cs ...*circuit.Circuit) string {
	t.Helper()
	h := sha256.New()
	for _, c := range cs {
		var buf bytes.Buffer
		if err := blif.Write(&buf, c); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestApproximatePinned pins Approximate's output on ripple-carry adders
// of 6-10 bits and array multipliers of 4-6 bits (the serve-mixed bases)
// and on one SuiteApproximations run.
func TestApproximatePinned(t *testing.T) {
	var exacts []*circuit.Circuit
	for n := 6; n <= 10; n++ {
		exacts = append(exacts, gen.RippleCarryAdder(n))
	}
	for n := 4; n <= 6; n++ {
		exacts = append(exacts, gen.ArrayMultiplier(n))
	}
	got := map[string]string{}
	for i, exact := range exacts {
		var outs []*circuit.Circuit
		for _, cfg := range pinConfigs(int64(i + 1)) {
			outs = append(outs, Approximate(exact, cfg))
		}
		got[exact.Name] = blifHash(t, outs...)
	}
	got["suite/mult6"] = blifHash(t, SuiteApproximations(gen.ArrayMultiplier(6), 5, 1)...)
	for name, h := range got {
		if want := pinnedALS[name]; h != want {
			t.Errorf("%s: BLIF hash %s, want %s", name, h, want)
		}
	}
}
