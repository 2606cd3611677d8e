//go:build !(linux && (amd64 || arm64))

package durable

import "os"

// dropPageCache is a no-op where posix_fadvise is not wired up.
func dropPageCache(*os.File) {}
