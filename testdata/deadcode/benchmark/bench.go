// Command benchmark calls BenchOnly; benchmark/ is not a caller.
package main

import (
	"fmt"

	"fixture/internal/trace"
)

func main() { fmt.Println(trace.BenchOnly()) }
