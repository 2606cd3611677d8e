//go:build amd64 && !purego

package edwards25519

import (
	"os"
	"strings"
	"testing"
)

// On Linux, the kernel lists a CPU flag in /proc/cpuinfo only if the CPU
// has it and the OS enabled it, ZMM state included: this build selects
// the lane kernel exactly where the flags list avx512f and avx512ifma.
func TestKernelMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	has := func(f string) bool {
		for _, g := range flags {
			if g == f {
				return true
			}
		}
		return false
	}
	if want := has("avx512f") && has("avx512ifma"); lanesSupported() != want {
		t.Fatalf("lane kernel selected: %t; /proc/cpuinfo lists avx512f and avx512ifma: %t", lanesSupported(), want)
	}
}
