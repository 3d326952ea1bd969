package sim

import (
	"context"
	"time"

	"trickledown/internal/telemetry"
)

// Engine-level telemetry. The per-slice loop never touches these
// directly: progress is accumulated in locals and flushed with a few
// atomic adds at every cancel-check boundary (and at return), so the
// slice hot path stays free of even atomic traffic.
var (
	mSlices = telemetry.NewCounter("sim_slices_total",
		"simulation slices stepped, across all engines")
	mSimSeconds = telemetry.NewFloatCounter("sim_seconds_total",
		"simulated seconds advanced, across all engines")
	mComponentSteps = telemetry.NewCounter("sim_component_steps_total",
		"component Step calls (events emitted), across all engines")
	mEnginesRunning = telemetry.NewGauge("sim_engines_running",
		"engines currently inside RunSlicesContext")
)

// Component is a piece of simulated hardware or software that is stepped
// once per slice. Components are stepped in registration order, which the
// assembling package (internal/machine) uses to encode data-flow order:
// workload demand first, then CPUs, then the I/O path, then power and
// measurement.
type Component interface {
	// Step advances the component by one slice. The clock has not yet
	// been ticked for the slice being computed: Clock.Seconds() is the
	// time at the start of the slice.
	Step(c *Clock)
}

// ComponentFunc adapts a function to the Component interface.
type ComponentFunc func(c *Clock)

// Step calls f(c).
func (f ComponentFunc) Step(c *Clock) { f(c) }

// Engine owns the clock and the ordered component list and runs the
// simulation loop.
type Engine struct {
	clock      *Clock
	components []Component
}

// NewEngine returns an engine driving the given clock.
func NewEngine(clock *Clock) *Engine {
	return &Engine{clock: clock}
}

// Register appends components to the step order.
func (e *Engine) Register(cs ...Component) {
	e.components = append(e.components, cs...)
}

// cancelCheckSlices is how many slices run between context checks in
// RunSlicesContext. At the default 1 ms slice this bounds cancellation
// latency to ~1/8 of a simulated second while keeping the select out of
// the per-slice hot path.
const cancelCheckSlices = 128

// RunSlicesContext executes up to n simulation slices, stopping early
// (between slices, never mid-slice, so the machine state stays
// consistent) when ctx is cancelled. It returns ctx.Err() on
// cancellation and nil when all n slices ran.
func (e *Engine) RunSlicesContext(ctx context.Context, n int64) error {
	if n <= 0 {
		return ctx.Err()
	}
	mEnginesRunning.Add(1)
	defer mEnginesRunning.Add(-1)
	pending := int64(0) // slices run since the last telemetry flush
	flush := func() {
		if pending == 0 {
			return
		}
		mSlices.Add(uint64(pending))
		mComponentSteps.Add(uint64(pending) * uint64(len(e.components)))
		mSimSeconds.Add(float64(pending) * e.clock.SliceSeconds())
		pending = 0
	}
	defer flush()
	for i := int64(0); i < n; i++ {
		if i%cancelCheckSlices == 0 {
			flush()
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		for _, c := range e.components {
			c.Step(e.clock)
		}
		e.clock.Tick()
		pending++
	}
	return nil
}

// RunForContext executes simulation slices until the clock has advanced
// by d (rounded down to whole slices), stopping early when ctx is done;
// see RunSlicesContext.
func (e *Engine) RunForContext(ctx context.Context, d time.Duration) error {
	return e.RunSlicesContext(ctx, int64(d/e.clock.Slice()))
}
