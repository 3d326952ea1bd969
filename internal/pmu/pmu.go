// Package pmu models the Pentium 4 style performance monitoring unit the
// paper samples: a per-processor file of programmable 40-bit counters,
// each tied to one of the architectural events the trickle-down models
// consume. Software (the perfctr-like driver in internal/perfctr)
// programs a slot with an event, then periodically reads the total and
// clears it, exactly as the paper describes ("the total count of various
// events is recorded and the counters are cleared").
//
// The P4 exposes on the order of forty events through eighteen counters;
// we model the eighteen slots and the subset of events the paper selects,
// plus the events it rejects along the way (uncacheable accesses, DMA
// accesses) so the model-selection experiments can be reproduced.
package pmu

import "fmt"

// Event identifies one countable performance event.
type Event uint8

// The performance events of Section 3.3 of the paper. Interrupt counts
// are not a hardware event on the P4 ("the interrupt vector information
// ... is not available as a performance event"); they are obtained from
// the OS layer (internal/osmodel's /proc/interrupts) instead, so there is
// deliberately no Interrupts event here.
const (
	// EventCycles counts core clock cycles (halted or not).
	EventCycles Event = iota
	// EventHaltedCycles counts cycles in which clock gating was active
	// because the OS executed HLT.
	EventHaltedCycles
	// EventFetchedUops counts micro-operations fetched, including
	// wrong-path work ("looking only at retired uops would neglect work
	// done in execution of incorrect branch paths").
	EventFetchedUops
	// EventL3LoadMisses counts loads that missed the L3 cache.
	EventL3LoadMisses
	// EventL3Misses counts all L3 misses including write/evict traffic.
	EventL3Misses
	// EventTLBMisses counts ITLB+DTLB misses.
	EventTLBMisses
	// EventBusTransactions counts all front-side-bus transactions
	// initiated by this processor, including hardware prefetches.
	EventBusTransactions
	// EventBusTransactionsPrefetch counts the subset of this processor's
	// bus transactions initiated by the hardware prefetcher.
	EventBusTransactionsPrefetch
	// EventDMAOther counts bus transactions that did not originate in
	// this processor. The P4 cannot distinguish DMA from other-processor
	// coherency traffic; both land here ("All memory bus accesses that do
	// not originate within a processor are combined into a single
	// metric").
	EventDMAOther
	// EventUncacheableAccesses counts loads/stores to uncacheable
	// (memory-mapped I/O) address ranges.
	EventUncacheableAccesses
	numEvents
)

// NumEvents is the number of defined events.
const NumEvents = int(numEvents)

// Slots is the number of programmable counters per processor, matching
// the Pentium 4's 18 counters.
const Slots = 18

// counterMask implements the P4's 40-bit counter width; counts wrap at
// 2^40 like the hardware.
const counterMask = (uint64(1) << 40) - 1

var eventNames = [...]string{
	EventCycles:                  "cycles",
	EventHaltedCycles:            "halted_cycles",
	EventFetchedUops:             "fetched_uops",
	EventL3LoadMisses:            "l3_load_misses",
	EventL3Misses:                "l3_misses",
	EventTLBMisses:               "tlb_misses",
	EventBusTransactions:         "bus_transactions",
	EventBusTransactionsPrefetch: "bus_transactions_prefetch",
	EventDMAOther:                "dma_other",
	EventUncacheableAccesses:     "uncacheable_accesses",
}

// String returns the event's mnemonic.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Valid reports whether e names a defined event.
func (e Event) Valid() bool { return e < numEvents }

// PMU is one processor's counter file. The zero value has no slots
// programmed.
type PMU struct {
	programmed [Slots]bool
	event      [Slots]Event
	count      [Slots]uint64
	// byEvent maps an event to the slot counting it, or -1.
	byEvent [numEvents]int8
	init    bool
}

// New returns a PMU with no slots programmed.
func New() *PMU {
	p := &PMU{}
	p.resetMap()
	return p
}

func (p *PMU) resetMap() {
	for i := range p.byEvent {
		p.byEvent[i] = -1
	}
	p.init = true
}

// Program configures slot to count event, clearing the slot's count. It
// returns an error for an invalid slot or event, or if the event is
// already being counted in another slot.
func (p *PMU) Program(slot int, e Event) error {
	if !p.init {
		p.resetMap()
	}
	if slot < 0 || slot >= Slots {
		return fmt.Errorf("pmu: slot %d out of range [0,%d)", slot, Slots)
	}
	if !e.Valid() {
		return fmt.Errorf("pmu: invalid event %d", uint8(e))
	}
	if cur := p.byEvent[e]; cur >= 0 && int(cur) != slot {
		return fmt.Errorf("pmu: event %v already programmed in slot %d", e, cur)
	}
	if p.programmed[slot] {
		p.byEvent[p.event[slot]] = -1
	}
	p.programmed[slot] = true
	p.event[slot] = e
	p.count[slot] = 0
	p.byEvent[e] = int8(slot)
	return nil
}

// Observe adds n occurrences of event e. Hardware models call this every
// slice; events with no programmed slot are silently dropped, like real
// hardware.
func (p *PMU) Observe(e Event, n uint64) {
	if !p.init {
		p.resetMap()
	}
	if !e.Valid() {
		return
	}
	slot := p.byEvent[e]
	if slot < 0 {
		return
	}
	p.count[slot] = (p.count[slot] + n) & counterMask
}

// Read returns the current count in slot.
func (p *PMU) Read(slot int) (uint64, error) {
	if slot < 0 || slot >= Slots {
		return 0, fmt.Errorf("pmu: slot %d out of range [0,%d)", slot, Slots)
	}
	if !p.programmed[slot] {
		return 0, fmt.Errorf("pmu: slot %d not programmed", slot)
	}
	return p.count[slot], nil
}

// ClearAll zeroes every programmed slot (the per-sample clear of the
// paper's methodology).
func (p *PMU) ClearAll() {
	for i := range p.count {
		p.count[i] = 0
	}
}
