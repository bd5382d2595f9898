package diskcache

import "syscall"

// mtimeNanos is a stat result's modification time in Unix nanoseconds.
func mtimeNanos(st *syscall.Stat_t) int64 { return st.Mtimespec.Nano() }
