package core

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/testutil"
)

// refMetrics computes ER, MED and MHD by direct behavioural evaluation
// over every input pattern — completely independent of miters, CNF and
// counting.
func refMetrics(exact, approx *circuit.Circuit) (er, med, mhd *big.Rat) {
	nIn := exact.NumInputs()
	nOut := exact.NumOutputs()
	if nIn > 16 {
		panic("refMetrics: too many inputs")
	}
	total := int64(1) << uint(nIn)
	var errCnt int64
	medSum := new(big.Int)
	var hdSum int64
	in := make([]bool, nIn)
	for x := int64(0); x < total; x++ {
		for i := range in {
			in[i] = x>>uint(i)&1 == 1
		}
		oe := exact.Eval(in)
		oa := approx.Eval(in)
		ve := new(big.Int)
		va := new(big.Int)
		diffBits := 0
		for j := 0; j < nOut; j++ {
			if oe[j] {
				ve.SetBit(ve, j, 1)
			}
			if oa[j] {
				va.SetBit(va, j, 1)
			}
			if oe[j] != oa[j] {
				diffBits++
			}
		}
		if diffBits > 0 {
			errCnt++
		}
		hdSum += int64(diffBits)
		d := new(big.Int).Sub(ve, va)
		medSum.Add(medSum, d.Abs(d))
	}
	tb := big.NewInt(total)
	er = new(big.Rat).SetFrac(big.NewInt(errCnt), tb)
	med = new(big.Rat).SetFrac(medSum, tb)
	mhd = new(big.Rat).SetFrac(big.NewInt(hdSum), tb)
	return
}

// approxVersion derives an approximate circuit from c by rewiring a late
// gate's fanin deterministically (seeded), guaranteeing same interface.
func approxVersion(c *circuit.Circuit, seed int64) *circuit.Circuit {
	a := c.Clone()
	a.Name += "_approx"
	changed := false
	for id := len(a.Nodes) - 1; id > 0 && !changed; id-- {
		nd := &a.Nodes[id]
		if nd.Kind.IsGate() && len(nd.Fanins) > 0 {
			pick := int(seed) % id
			if pick != nd.Fanins[0] {
				nd.Fanins[0] = pick
				changed = true
			}
		}
	}
	return a
}

func allMethods() []Method { return []Method{MethodVACSEM, MethodDPLL, MethodEnum} }

func TestVerifyERIdenticalCircuits(t *testing.T) {
	c := testutil.RandomCircuit(6, 20, 3, 1)
	for _, m := range allMethods() {
		r, err := Verify(context.Background(), c, c.Clone(), MetricSpec{Kind: MetricER}, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if r.Value.Sign() != 0 {
			t.Errorf("%v: ER of identical circuits = %v, want 0", m, r.Value)
		}
	}
}

func TestVerifyERInvertedOutput(t *testing.T) {
	// Approximate = exact with one output inverted: that output always
	// differs, so ER = 1.
	c := circuit.New("inv")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(circuit.And, a, b)
	c.AddOutput(g, "y")
	ap := circuit.New("inv_a")
	a2 := ap.AddInput("a")
	b2 := ap.AddInput("b")
	g2 := ap.AddGate(circuit.Nand, a2, b2)
	ap.AddOutput(g2, "y")
	for _, m := range allMethods() {
		r, err := Verify(context.Background(), c, ap, MetricSpec{Kind: MetricER}, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if r.Value.Cmp(big.NewRat(1, 1)) != 0 {
			t.Errorf("%v: ER = %v, want 1", m, r.Value)
		}
	}
}

func TestVerifyMetricsRandomAllMethodsAgree(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		nIn := 4 + int(seed%6)
		nOut := 1 + int(seed%4)
		exact := testutil.RandomCircuit(nIn, 10+int(seed*3%30), nOut, seed)
		approx := approxVersion(exact, seed*13+7)
		wantER, wantMED, wantMHD := refMetrics(exact, approx)
		for _, m := range allMethods() {
			er, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricER}, Options{Method: m})
			if err != nil {
				t.Fatalf("seed %d %v ER: %v", seed, m, err)
			}
			if er.Value.Cmp(wantER) != 0 {
				t.Errorf("seed %d %v: ER = %v, want %v", seed, m, er.Value, wantER)
			}
			med, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: m})
			if err != nil {
				t.Fatalf("seed %d %v MED: %v", seed, m, err)
			}
			if med.Value.Cmp(wantMED) != 0 {
				t.Errorf("seed %d %v: MED = %v, want %v", seed, m, med.Value, wantMED)
			}
			mhd, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMHD}, Options{Method: m})
			if err != nil {
				t.Fatalf("seed %d %v MHD: %v", seed, m, err)
			}
			if mhd.Value.Cmp(wantMHD) != 0 {
				t.Errorf("seed %d %v: MHD = %v, want %v", seed, m, mhd.Value, wantMHD)
			}
		}
	}
}

func TestVerifyNoSynthMatchesSynth(t *testing.T) {
	exact := testutil.RandomCircuit(7, 25, 2, 99)
	approx := approxVersion(exact, 5)
	a, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{NoSynth: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value.Cmp(b.Value) != 0 {
		t.Errorf("MED with synth %v != without %v", a.Value, b.Value)
	}
}

func TestVerifyThresholdProb(t *testing.T) {
	// Exact: 2-bit identity; approx: output forced to 00. Deviation is
	// int(y), uniform over {0,1,2,3}. P(dev > 1) = 1/2, P(dev > 0) = 3/4,
	// P(dev > 3) = 0.
	exact := circuit.New("id2")
	a := exact.AddInput("a")
	b := exact.AddInput("b")
	exact.AddOutput(a, "y0")
	exact.AddOutput(b, "y1")
	approx := circuit.New("zero2")
	approx.AddInput("a")
	approx.AddInput("b")
	approx.AddOutput(0, "y0")
	approx.AddOutput(0, "y1")
	cases := []struct {
		t    int64
		want *big.Rat
	}{
		{0, big.NewRat(3, 4)},
		{1, big.NewRat(1, 2)},
		{2, big.NewRat(1, 4)},
		{3, new(big.Rat)},
		{100, new(big.Rat)},
	}
	for _, m := range allMethods() {
		for _, tc := range cases {
			r, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricThresholdProb, Threshold: big.NewInt(tc.t)}, Options{Method: m})
			if err != nil {
				t.Fatalf("%v t=%d: %v", m, tc.t, err)
			}
			if r.Value.Cmp(tc.want) != 0 {
				t.Errorf("%v: P(dev>%d) = %v, want %v", m, tc.t, r.Value, tc.want)
			}
		}
	}
}

func TestVerifyMiterCustomWeights(t *testing.T) {
	// A custom 2-output miter with weights 3 and 5: value =
	// 3*P(out0) + 5*P(out1).
	m := circuit.New("custom")
	a := m.AddInput("a")
	b := m.AddInput("b")
	m.AddOutput(m.AddGate(circuit.And, a, b), "o0") // P = 1/4
	m.AddOutput(m.AddGate(circuit.Or, a, b), "o1")  // P = 3/4
	want := new(big.Rat).Add(big.NewRat(3, 4), big.NewRat(15, 4))
	for _, mm := range allMethods() {
		r, err := VerifyMiter(context.Background(), "custom", m, []*big.Int{big.NewInt(3), big.NewInt(5)}, Options{Method: mm})
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Cmp(want) != 0 {
			t.Errorf("%v: custom metric = %v, want %v", mm, r.Value, want)
		}
	}
}

func TestVerifyInterfaceMismatch(t *testing.T) {
	a := testutil.RandomCircuit(4, 10, 2, 1)
	b := testutil.RandomCircuit(5, 10, 2, 1)
	if _, err := Verify(context.Background(), a, b, MetricSpec{Kind: MetricER}, Options{}); err == nil {
		t.Error("expected input-count mismatch error")
	}
	c := testutil.RandomCircuit(4, 10, 3, 1)
	if _, err := Verify(context.Background(), a, c, MetricSpec{Kind: MetricMED}, Options{}); err == nil {
		t.Error("expected output-count mismatch error")
	}
}

func TestVerifyTimeout(t *testing.T) {
	exact := testutil.RandomCircuit(20, 300, 4, 2)
	approx := approxVersion(exact, 77)
	_, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodEnum, TimeLimit: 1})
	if err != ErrTimeout && err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestResultFields(t *testing.T) {
	exact := testutil.RandomCircuit(5, 15, 2, 3)
	approx := approxVersion(exact, 9)
	r, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumInputs != 5 {
		t.Errorf("NumInputs = %d, want 5", r.NumInputs)
	}
	if len(r.Subs) != exact.NumOutputs() {
		t.Errorf("Subs = %d, want %d", len(r.Subs), exact.NumOutputs())
	}
	if r.Metric != "MED" {
		t.Errorf("Metric = %q", r.Metric)
	}
	if r.Runtime <= 0 {
		t.Errorf("Runtime not recorded")
	}
	for _, sub := range r.Subs {
		if sub.Count == nil || sub.Weight == nil {
			t.Errorf("sub %q missing count/weight", sub.Output)
		}
	}
	_ = r.Float()
}
