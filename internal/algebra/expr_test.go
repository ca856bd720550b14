package algebra

import (
	"math"
	"math/rand"
	"testing"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

func exprSchema() *value.Schema {
	return value.MustSchema(
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "b", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
		value.Field{Name: "s", Type: value.Str},
	)
}

func TestParseScalarExprRoundTrip(t *testing.T) {
	cases := []struct{ in, out string }{
		{"a", "a"},
		{"a + b", "a + b"},
		{"a+b*x", "a + b * x"},
		{"(a+b)*x", "(a + b) * x"},
		{"a - b - 2", "a - b - 2"},
		{"a - (b - 2)", "a - (b - 2)"},
		{"a / b / 2", "a / b / 2"},
		{"a / (b * 2)", "a / (b * 2)"},
		{"-a", "0 - a"},
		{"-5 + a", "-5 + a"},
		{"2.5 * x", "2.5 * x"},
		{"1e3 + x", "1000 + x"},
	}
	for _, c := range cases {
		e, err := ParseScalarExpr(c.in)
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		if got := e.String(); got != c.out {
			t.Errorf("parse %q: printed %q, want %q", c.in, got, c.out)
		}
		// The printed form must re-parse to the same tree.
		e2, err := ParseScalarExpr(e.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e.String(), err)
		}
		if e2.String() != e.String() {
			t.Errorf("%q: reparse drifted to %q", e.String(), e2.String())
		}
	}
	for _, bad := range []string{"", "a +", "(a", "a b", "a & b", "1.2.3", "sum(a)"} {
		if _, err := ParseScalarExpr(bad); err == nil {
			t.Errorf("parse %q: expected error", bad)
		}
	}
}

func TestExprType(t *testing.T) {
	s := exprSchema()
	cases := []struct {
		in   string
		kind value.Kind
	}{
		{"a + b", value.Int},
		{"a / b", value.Int},
		{"a + x", value.Float},
		{"x * y", value.Float},
		{"a * 2", value.Int},
		{"a * 2.0", value.Float},
	}
	for _, c := range cases {
		e, err := ParseScalarExpr(c.in)
		if err != nil {
			t.Fatal(err)
		}
		k, err := ExprType(e, s)
		if err != nil {
			t.Fatal(err)
		}
		if k != c.kind {
			t.Errorf("%q: type %v, want %v", c.in, k, c.kind)
		}
	}
	for _, bad := range []string{"s + 1", "a + nope"} {
		e, err := ParseScalarExpr(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ExprType(e, s); err == nil {
			t.Errorf("%q: expected type error", bad)
		}
	}
}

func TestEvalScalarSemantics(t *testing.T) {
	s := exprSchema()
	row := value.Row{
		value.NewInt(7),
		value.NewInt(0),
		value.NewFloat(1.5),
		value.NewFloat(0),
		value.NewString("z"),
	}
	cases := []struct {
		in   string
		want value.Value
	}{
		{"a + 1", value.NewInt(8)},
		{"a / b", value.NullValue()},           // int division by zero -> null
		{"a / 2", value.NewInt(3)},             // truncating
		{"x / y", value.NewFloat(math.Inf(1))}, // IEEE float division
		{"a * x", value.NewFloat(10.5)},
	}
	for _, c := range cases {
		e, err := ParseScalarExpr(c.in)
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		got, err := EvalScalar(e, s, row)
		if err != nil {
			t.Fatalf("eval %q: %v", c.in, err)
		}
		if !value.Equal(got, c.want) {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
	// Overflow wraps (two's complement), and MinInt64 / -1 is defined to
	// wrap instead of panicking.
	for _, c := range []struct {
		e    ScalarExpr
		want int64
	}{
		{&BinExpr{Op: '/', L: &ConstExpr{Val: value.NewInt(math.MinInt64)}, R: &ConstExpr{Val: value.NewInt(-1)}}, math.MinInt64},
		{&BinExpr{Op: '+', L: &ConstExpr{Val: value.NewInt(math.MaxInt64)}, R: &ConstExpr{Val: value.NewInt(1)}}, math.MinInt64},
	} {
		got, err := EvalScalar(c.e, s, row)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int() != c.want {
			t.Errorf("%s = %v, want %d", c.e, got, c.want)
		}
	}
	// Null input poisons the expression.
	nrow := value.Row{value.NullValue(), value.NewInt(1), value.NewFloat(1), value.NewFloat(1), value.NewString("z")}
	e, _ := ParseScalarExpr("a + b")
	got, err := EvalScalar(e, s, nrow)
	if err != nil || !got.IsNull() {
		t.Errorf("null input: got %v, %v; want null", got, err)
	}
}

// randExpr builds a random expression over int columns a,b and float
// columns x,y with constants, exercising every operator and the widening
// insert.
func randExpr(r *rand.Rand, depth int) ScalarExpr {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &ColExpr{Name: []string{"a", "b", "x", "y"}[r.Intn(4)]}
		case 1:
			return &ConstExpr{Val: value.NewInt(int64(r.Intn(7) - 3))}
		case 2:
			return &ConstExpr{Val: value.NewFloat(r.Float64()*4 - 2)}
		default:
			return &ColExpr{Name: []string{"a", "b"}[r.Intn(2)]}
		}
	}
	return &BinExpr{
		Op: []byte{'+', '-', '*', '/'}[r.Intn(4)],
		L:  randExpr(r, depth-1),
		R:  randExpr(r, depth-1),
	}
}

// TestCompiledExprMatchesScalar pins EvalVec to the boxed EvalScalar oracle
// over random expressions and data with nulls, NaN, ±Inf, huge ints, zero
// divisors — under nil, partial, and empty selections.
func TestCompiledExprMatchesScalar(t *testing.T) {
	s := value.MustSchema(
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "b", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
	)
	r := rand.New(rand.NewSource(9))
	const n = 257 // odd size crosses bitmap word boundaries
	b := vec.NewBatch(s)
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		var row value.Row
		ints := []int64{0, 1, -1, 3, math.MaxInt64, math.MinInt64}
		for c := 0; c < 2; c++ {
			if r.Intn(12) == 0 {
				row = append(row, value.NullValue())
			} else {
				row = append(row, value.NewInt(ints[r.Intn(len(ints))]))
			}
		}
		floats := []float64{0, math.Copysign(0, -1), 1.25, -3.5, math.NaN(), math.Inf(1), math.Inf(-1), r.NormFloat64()}
		for c := 0; c < 2; c++ {
			if r.Intn(12) == 0 {
				row = append(row, value.NullValue())
			} else {
				row = append(row, value.NewFloat(floats[r.Intn(len(floats))]))
			}
		}
		rows[i] = row
		for c := range row {
			if err := b.Cols[c].AppendValue(row[c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.SetLen(n); err != nil {
		t.Fatal(err)
	}
	sels := [][]int32{
		nil,
		{},           // empty selection
		{0, 64, 255}, // sparse
	}
	var half []int32
	for i := int32(0); i < n; i += 2 {
		half = append(half, i)
	}
	sels = append(sels, half)

	var scratch ExprScratch
	var dst vec.Vector
	for trial := 0; trial < 300; trial++ {
		e := randExpr(r, 3)
		ce, err := CompileExpr(e, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range sels {
			if err := ce.EvalVec(b, n, sel, &dst, &scratch); err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			count := n
			if sel != nil {
				count = len(sel)
			}
			if dst.Len() != count {
				t.Fatalf("%s: result len %d, want %d", e, dst.Len(), count)
			}
			for k := 0; k < count; k++ {
				ri := k
				if sel != nil {
					ri = int(sel[k])
				}
				want, err := EvalScalar(e, s, rows[ri])
				if err != nil {
					t.Fatal(err)
				}
				got := dst.Value(k)
				if !value.Equal(got, want) {
					t.Fatalf("%s row %d: vec %v, scalar %v", e, ri, got, want)
				}
			}
		}
	}
}
