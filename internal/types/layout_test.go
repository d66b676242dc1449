package types

import (
	"math"
	"strconv"
	"testing"
	"unsafe"
)

// Every row, index key and bound parameter is a slice of Values, so the
// struct's width multiplies into most of a node's heap. A float payload
// shares the integer word; a new field that widens Value must show up
// here, not as an unexplained heap regression.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// specialFloats are the IEEE-754 values whose bit patterns a float
// stored as math.Float64bits must carry through unchanged.
func specialFloats() map[string]float64 {
	return map[string]float64{
		"NaN":          math.NaN(),
		"NaN-payload":  math.Float64frombits(0x7ff8_0000_0000_0abc),
		"-NaN":         math.Float64frombits(0xfff8_0000_0000_0001),
		"+0":           0,
		"-0":           math.Copysign(0, -1),
		"+Inf":         math.Inf(1),
		"-Inf":         math.Inf(-1),
		"min-subnorm":  math.SmallestNonzeroFloat64,
		"-subnorm":     -2.5e-310,
		"max-subnorm":  math.Float64frombits(0x000f_ffff_ffff_ffff),
		"min-normal":   0x1p-1022,
		"max":          math.MaxFloat64,
		"-max":         -math.MaxFloat64,
		"one-and-half": 1.5,
	}
}

func TestFloatRoundTripsBitExact(t *testing.T) {
	for name, f := range specialFloats() {
		v := NewFloat(f)
		if v.Kind() != KindFloat {
			t.Errorf("%s: kind = %v", name, v.Kind())
		}
		if got, want := math.Float64bits(v.Float()), math.Float64bits(f); got != want {
			t.Errorf("%s: Float() bits = %#x, want %#x", name, got, want)
		}
		if got, want := v.String(), strconv.FormatFloat(f, 'g', -1, 64); got != want {
			t.Errorf("%s: String() = %q, want %q", name, got, want)
		}
		if c := Compare(v, NewFloat(f)); c != 0 {
			t.Errorf("%s: Compare with itself = %d", name, c)
		}
	}
}

func TestFloatCompareOrder(t *testing.T) {
	// Ascending under Compare; NaN first, and -0 equal to +0 as before.
	asc := []float64{
		math.NaN(), math.Inf(-1), -math.MaxFloat64, -1.5, -2.5e-310,
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022,
		1.5, math.MaxFloat64, math.Inf(1),
	}
	for i := range asc {
		for j := range asc {
			want := cmpInt(int64(i), int64(j))
			if i == 5 && j == 5 {
				want = 0
			}
			if got := Compare(NewFloat(asc[i]), NewFloat(asc[j])); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", asc[i], asc[j], got, want)
			}
		}
	}
	if c := Compare(NewFloat(math.Copysign(0, -1)), NewFloat(0)); c != 0 {
		t.Errorf("Compare(-0, +0) = %d, want 0", c)
	}
	if c := Compare(NewFloat(math.Copysign(0, -1)), NewInt(0)); c != 0 {
		t.Errorf("Compare(-0, BIGINT 0) = %d, want 0", c)
	}
	if c := Compare(NewFloat(-0.5), NewInt(0)); c != -1 {
		t.Errorf("Compare(-0.5, BIGINT 0) = %d, want -1", c)
	}
	if c := Compare(NewFloat(math.NaN()), NewInt(math.MinInt64)); c != -1 {
		t.Errorf("Compare(NaN, BIGINT min) = %d, want -1", c)
	}
}

func TestFloatCoercionEdges(t *testing.T) {
	if v, err := CoerceToKind(NewFloat(math.Copysign(0, -1)), KindInt); err != nil || v.Int() != 0 {
		t.Errorf("-0 to BIGINT = %v, %v", v, err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64} {
		if _, err := CoerceToKind(NewFloat(f), KindInt); err == nil {
			t.Errorf("%v coerced to BIGINT", f)
		}
	}
	if v, err := CoerceToKind(NewInt(-3), KindFloat); err != nil || math.Float64bits(v.Float()) != math.Float64bits(-3) {
		t.Errorf("BIGINT -3 to DOUBLE = %v, %v", v, err)
	}
}
