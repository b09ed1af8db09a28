package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"mood/internal/clock"
	"mood/internal/store"
)

// fingerprint describes where a run was measured. Two runs are only
// comparable when everything but the commit agrees: -compare refuses
// the rest.
type fingerprint struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	WALDirFS   string  `json:"wal_dir_fs"`
	FsyncUs    float64 `json:"store.fsync_us"`
}

// comparable reports why two fingerprints cannot be compared ("" when
// they can). The commit is what a comparison varies; the WAL directory's
// filesystem and fsync_us describe a disk whose answer time is in no
// metric (see modelDiskFS), so they are reported, not keys.
func (f fingerprint) comparable(o fingerprint) string {
	var diffs []string
	add := func(name string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, a, b))
		}
	}
	add("go_version", f.GoVersion, o.GoVersion)
	add("cpu_model", f.CPUModel, o.CPUModel)
	add("nproc", f.NumCPU, o.NumCPU)
	add("gomaxprocs", f.GOMAXPROCS, o.GOMAXPROCS)
	add("clients", f.Clients, o.Clients)
	return strings.Join(diffs, "; ")
}

func takeFingerprint(clk clock.Clock, scratch string) fingerprint {
	fp := fingerprint{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    numClients(),
		WALDirFS:   fsType(scratch),
		FsyncUs:    probeFsync(clk, scratch),
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		fp.Commit = c // bench/run.sh builds unstamped and passes the commit along
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem under dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// probeFsync is the environment probe behind store.fsync_us: the median
// cost of appending one small frame and fsyncing it, through the same
// store.FS the WAL writes through, in the directory the WALs live in.
func probeFsync(clk clock.Clock, dir string) float64 {
	fsys := store.OS()
	name := filepath.Join(dir, "fsync-probe")
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return 0
	}
	defer fsys.Remove(name) //nolint:errcheck // probe file
	defer f.Close()
	frame := make([]byte, 256)
	var us []float64
	for i := 0; i < 25; i++ {
		t0 := clk.Now()
		if _, err := f.Write(frame); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(clk.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}
