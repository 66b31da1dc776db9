package task

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func TestComputeKeysTwoKinds(t *testing.T) {
	tk := &Task{}
	tk.Weight[hw.CPU] = 1
	tk.Weight[hw.GPU] = 10
	tk.ComputeKeys()
	if tk.Key[hw.GPU] != 10 || tk.Key[hw.CPU] != 0.1 {
		t.Fatalf("keys = %v", tk.Key)
	}
}

func TestComputeKeysZeroWeightDefaultsToOne(t *testing.T) {
	tk := &Task{}
	tk.Weight[hw.GPU] = 4
	tk.ComputeKeys()
	if tk.Weight[hw.CPU] != 1 {
		t.Fatalf("CPU weight = %v, want defaulted 1", tk.Weight[hw.CPU])
	}
	if tk.Key[hw.CPU] != 0.25 {
		t.Fatalf("CPU key = %v", tk.Key[hw.CPU])
	}
}

func TestSetUniformWeight(t *testing.T) {
	tk := &Task{}
	tk.SetUniformWeight()
	for _, k := range hw.Kinds {
		if tk.Weight[k] != 1 || tk.Key[k] != 1 {
			t.Fatalf("weights = %v keys = %v", tk.Weight, tk.Key)
		}
	}
}

func TestKeysReciprocalProperty(t *testing.T) {
	// Property (two device classes): Key[CPU] * Key[GPU] == 1, since each
	// is the ratio of its weight to the other's.
	f := func(wRaw uint16) bool {
		w := 0.01 + float64(wRaw)/100
		tk := &Task{}
		tk.Weight[hw.CPU] = 1
		tk.Weight[hw.GPU] = w
		tk.ComputeKeys()
		return math.Abs(tk.Key[hw.CPU]*tk.Key[hw.GPU]-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
