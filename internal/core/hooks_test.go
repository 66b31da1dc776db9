package core

import (
	"reflect"
	"testing"
)

// TestSubscribe pins the bus's composition order: the subscriber attached
// last fires first, then the earlier ones. serve.New relies on it — the
// sink attaches before the span collector, so the collector has seen a
// served request's Process record by the time the sink forgets its lineage.
func TestSubscribe(t *testing.T) {
	var hook func(int)
	var order []string
	first := func(int) { order = append(order, "first") }

	Subscribe(&hook, first)
	if reflect.ValueOf(hook).Pointer() != reflect.ValueOf(first).Pointer() {
		t.Fatal("a nil hook's first subscriber was wrapped, want it installed as given")
	}
	Subscribe(&hook, func(int) { order = append(order, "second") })
	Subscribe(&hook, func(int) { order = append(order, "third") })

	hook(0)
	if got, want := order, []string{"third", "second", "first"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("subscribers fired %v, want %v", got, want)
	}

	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { order = order[:0]; hook(1) }); n != 0 {
		t.Fatalf("firing a composed hook allocated %v times per record, want 0", n)
	}
}
