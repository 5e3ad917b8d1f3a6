package main

import "testing"

// TestParseFractionsRange holds -fractions to [0,1]: every value out of it,
// NaN included, is an error, and the bounds themselves are accepted.
func TestParseFractionsRange(t *testing.T) {
	for _, c := range []struct {
		arg string
		ok  bool
	}{
		{"0,0.578,1", true},
		{"-0.1", false},
		{"1.5", false},
		{"0.1,NaN", false},
		{"+Inf", false},
	} {
		got, err := parseFractions(c.arg)
		if (err == nil) != c.ok {
			t.Errorf("parseFractions(%q) = %v, %v; want ok %v", c.arg, got, err, c.ok)
		}
	}
}
