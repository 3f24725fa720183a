package tsp

import (
	"strings"
	"testing"
)

const euc2dFixture = `NAME: square5
TYPE: TSP
COMMENT: unit test fixture
DIMENSION: 5
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 10 0
3 10 10
4 0 10
5 5 5
EOF
`

func TestParseEUC2D(t *testing.T) {
	in, err := ParseTSPLIB(strings.NewReader(euc2dFixture))
	if err != nil {
		t.Fatal(err)
	}
	if in.N != 5 {
		t.Fatalf("N = %d, want 5", in.N)
	}
	if in.Cost[0][1] != 10 || in.Cost[0][2] != 14 {
		t.Fatalf("distances wrong: 0→1 = %d (want 10), 0→2 = %d (want 14)", in.Cost[0][1], in.Cost[0][2])
	}
	if in.Cost[0][0] != Inf {
		t.Fatal("diagonal not Inf")
	}
	// Cross-check with the solver: perimeter optimum with center visited
	// on the way is well-defined and the oracle agrees.
	got := SolveSerial(in)
	want := SolveBruteForce(in)
	if got.Tour.Cost != want.Cost {
		t.Fatalf("LMSK %d vs brute force %d", got.Tour.Cost, want.Cost)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no section":     "NAME: x\nDIMENSION: 4\nEOF\n",
		"no dimension":   "NAME: x\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n",
		"bad type":       "TYPE: ATSP\nDIMENSION: 4\n",
		"short coords":   "DIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n",
		"dup city":       "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n1 1 1\n3 2 2\nEOF\n",
		"bad coord":      "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 zz\n2 1 1\n3 2 2\nEOF\n",
		"bad header":     "GIBBERISH WITHOUT COLON\nDIMENSION: 3\n",
		"unsupported":    "DIMENSION: 3\nEDGE_WEIGHT_TYPE: GEO\nNODE_COORD_SECTION\n1 0 0\n2 1 1\n3 2 2\nEOF\n",
		"short matrix":   "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\nEOF\n",
		"asym matrix":    "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\n9 0 3\n2 3 0\nEOF\n",
		"bad weight":     "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 x\n1 0 3\n2 3 0\nEOF\n",
		"tiny dimension": "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n",
	}
	for name, input := range cases {
		if _, err := ParseTSPLIB(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}

	// Weights the search cannot hold: the error names the cell.
	const matrix = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
	const coords = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
	for name, c := range map[string]struct{ input, err string }{
		"negative weight":    {matrix + "0 -5 2\n-5 0 3\n2 3 0\nEOF\n", "weight -5 at (1,2) is outside [0, 2147483647)"},
		"weight at MaxInt32": {matrix + "0 1 2\n1 0 2147483647\n2 2147483647 0\nEOF\n", "weight 2147483647 at (2,3) is outside [0, 2147483647)"},
		"weight at Inf":      {matrix + "0 1099511627776 2\n1099511627776 0 3\n2 3 0\nEOF\n", "weight 1099511627776 at (1,2)"},
		"far coordinates":    {coords + "1 0 0\n2 3e9 0\n3 1 1\nEOF\n", "weight 3e+09 at (1,2) is outside"},
		"NaN coordinate":     {coords + "1 0 0\n2 1 1\n3 NaN 1\nEOF\n", "weight NaN at (1,3) is outside"},
	} {
		_, err := ParseTSPLIB(strings.NewReader(c.input))
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.err)
		}
	}
}

// TestNewRootRejectsUnholdableCosts checks NewRoot's guard for generated
// instances, which never pass through ParseTSPLIB.
func TestNewRootRejectsUnholdableCosts(t *testing.T) {
	for _, v := range []int64{-1, infCell, Inf} {
		in := NewRandomInstance(4, 1)
		in.Cost[1][2], in.Cost[2][1] = v, v
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRoot accepted cost %d", v)
				}
			}()
			NewRoot(in)
		}()
	}
}

func TestParseFullMatrixAnyLineBreaking(t *testing.T) {
	input := "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 5\n7 5 0 9 7\n9 0\nEOF\n"
	in, err := ParseTSPLIB(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if in.Cost[0][1] != 5 || in.Cost[0][2] != 7 || in.Cost[1][2] != 9 {
		t.Fatalf("costs wrong: %v", in.Cost)
	}
}
