// Command fixture calls the declarations the guard must not flag.
package main

import (
	"fmt"

	"fixture/internal/trace"
)

func main() {
	var t trace.Trace
	t.Hit()
	fmt.Println(&t, trace.Used())
}
