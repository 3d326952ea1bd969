package thermal_test

import (
	"fmt"

	"trickledown/internal/power"
	"trickledown/internal/thermal"
)

// SteadyState turns a counter-based power estimate into the temperature
// the package *will* reach — available immediately, long before any
// physical sensor moves.
func ExampleModel_SteadyState() {
	m := thermal.New(thermal.DefaultParams())
	estimate := power.Reading{160, 20, 40, 33, 22} // Watts per rail
	t := m.SteadyState(estimate)
	hottest := power.SubCPU
	for _, sub := range power.Subsystems() {
		if t[sub] > t[hottest] {
			hottest = sub
		}
	}
	fmt.Printf("hottest: %s at %.1f C\n", hottest, t[hottest])
	// Output: hottest: CPU at 68.2 C
}
