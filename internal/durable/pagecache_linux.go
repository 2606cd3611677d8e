//go:build linux && (amd64 || arm64)

package durable

import (
	"os"
	"syscall"
)

// dropPageCache advises the kernel that f's cached pages will not be
// needed again (posix_fadvise POSIX_FADV_DONTNEED over the whole file).
// Clean pages are released at once, so call it after Sync. Advisory:
// failure only leaves the pages cached.
func dropPageCache(f *os.File) {
	const fadvDontNeed = 4
	_, _, _ = syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0)
}
