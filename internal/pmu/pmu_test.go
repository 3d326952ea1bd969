package pmu

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// readEvent returns the current count for event e, if programmed.
func readEvent(p *PMU, e Event) (uint64, error) {
	if !p.init {
		p.resetMap()
	}
	if !e.Valid() {
		return 0, fmt.Errorf("pmu: invalid event %d", uint8(e))
	}
	slot := p.byEvent[e]
	if slot < 0 {
		return 0, fmt.Errorf("pmu: event %v not programmed", e)
	}
	return p.count[slot], nil
}

func TestProgramObserveRead(t *testing.T) {
	p := New()
	if err := p.Program(0, EventCycles); err != nil {
		t.Fatal(err)
	}
	p.Observe(EventCycles, 100)
	p.Observe(EventCycles, 23)
	got, err := p.Read(0)
	if err != nil || got != 123 {
		t.Fatalf("Read = %d, %v", got, err)
	}
	got, err = readEvent(p, EventCycles)
	if err != nil || got != 123 {
		t.Fatalf("readEvent = %d, %v", got, err)
	}
}

func TestUnprogrammedEventDropped(t *testing.T) {
	p := New()
	p.Observe(EventTLBMisses, 50) // no slot: must not panic, must not count
	if _, err := readEvent(p, EventTLBMisses); err == nil {
		t.Fatal("readEvent of unprogrammed event must fail")
	}
}

func TestProgramErrors(t *testing.T) {
	p := New()
	if err := p.Program(-1, EventCycles); err == nil {
		t.Error("negative slot accepted")
	}
	if err := p.Program(Slots, EventCycles); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := p.Program(0, Event(200)); err == nil {
		t.Error("invalid event accepted")
	}
	if err := p.Program(0, EventCycles); err != nil {
		t.Fatal(err)
	}
	if err := p.Program(1, EventCycles); err == nil {
		t.Error("duplicate event in second slot accepted")
	}
	// Reprogramming the same slot with the same event is allowed.
	if err := p.Program(0, EventCycles); err != nil {
		t.Errorf("reprogram same slot: %v", err)
	}
}

func TestReprogramSlotFreesOldEvent(t *testing.T) {
	p := New()
	if err := p.Program(0, EventCycles); err != nil {
		t.Fatal(err)
	}
	if err := p.Program(0, EventFetchedUops); err != nil {
		t.Fatal(err)
	}
	// EventCycles should now be free for another slot.
	if err := p.Program(1, EventCycles); err != nil {
		t.Errorf("event not freed on reprogram: %v", err)
	}
	p.Observe(EventFetchedUops, 7)
	if got, _ := p.Read(0); got != 7 {
		t.Errorf("slot 0 = %d, want 7", got)
	}
}

func TestProgramClearsCount(t *testing.T) {
	p := New()
	if err := p.Program(0, EventCycles); err != nil {
		t.Fatal(err)
	}
	p.Observe(EventCycles, 10)
	if err := p.Program(0, EventCycles); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Read(0); got != 0 {
		t.Errorf("Program did not clear count: %d", got)
	}
}

func TestClearAndClearAll(t *testing.T) {
	p := New()
	_ = p.Program(0, EventCycles)
	_ = p.Program(1, EventFetchedUops)
	p.Observe(EventCycles, 5)
	p.Observe(EventFetchedUops, 6)
	p.ClearAll()
	for slot := 0; slot < 2; slot++ {
		if got, err := p.Read(slot); err != nil || got != 0 {
			t.Errorf("slot %d after ClearAll: %d, %v; want 0 and still programmed", slot, got, err)
		}
	}
}

func TestReadErrors(t *testing.T) {
	p := New()
	if _, err := p.Read(0); err == nil {
		t.Error("Read of unprogrammed slot must fail")
	}
	if _, err := p.Read(-1); err == nil {
		t.Error("Read of negative slot must fail")
	}
	if _, err := readEvent(p, Event(99)); err == nil {
		t.Error("readEvent of invalid event must fail")
	}
}

func TestCounterWraps40Bits(t *testing.T) {
	p := New()
	_ = p.Program(0, EventCycles)
	p.Observe(EventCycles, (1<<40)-1)
	p.Observe(EventCycles, 2)
	got, _ := p.Read(0)
	if got != 1 {
		t.Errorf("40-bit wrap: got %d, want 1", got)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var p PMU
	if err := p.Program(0, EventCycles); err != nil {
		t.Fatal(err)
	}
	p.Observe(EventCycles, 3)
	if got, _ := p.Read(0); got != 3 {
		t.Errorf("zero value PMU Read = %d", got)
	}
	var q PMU
	q.Observe(EventCycles, 1) // must not panic
	var r PMU
	if _, err := readEvent(&r, EventCycles); err == nil {
		t.Error("zero value readEvent of unprogrammed event must fail")
	}
}

func TestEventString(t *testing.T) {
	if EventFetchedUops.String() != "fetched_uops" {
		t.Errorf("String = %q", EventFetchedUops.String())
	}
	if !strings.Contains(Event(77).String(), "77") {
		t.Errorf("invalid event String = %q", Event(77).String())
	}
}

func TestProgrammed(t *testing.T) {
	p := New()
	_ = p.Program(3, EventDMAOther)
	if !p.programmed[3] || p.event[3] != EventDMAOther {
		t.Errorf("slot 3 = %v %v", p.event[3], p.programmed[3])
	}
	if p.programmed[0] {
		t.Error("slot 0 reported programmed")
	}
}

// Property: observed counts accumulate additively for any sequence.
func TestObserveAdditive(t *testing.T) {
	f := func(ns []uint16) bool {
		p := New()
		if err := p.Program(0, EventBusTransactions); err != nil {
			return false
		}
		var want uint64
		for _, n := range ns {
			p.Observe(EventBusTransactions, uint64(n))
			want += uint64(n)
		}
		got, err := p.Read(0)
		return err == nil && got == want&((1<<40)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
