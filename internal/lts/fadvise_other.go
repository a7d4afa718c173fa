//go:build !linux || !(amd64 || arm64)

package lts

import "os"

// dropBehind is a no-op where posix_fadvise is not available.
func dropBehind(*os.File, int64, int64) {}
