package obs

import (
	"errors"
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins a CPU profile at dir/cpu.pprof and returns a stop
// function that ends it and writes a heap profile to dir/heap.pprof. The
// directory is created if needed.
func StartProfiles(dir string) (stop func() error, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: pprof dir: %w", err)
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		var cerr error
		if err := cpu.Close(); err != nil {
			cerr = fmt.Errorf("obs: cpu profile close: %w", err)
		}
		heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return errors.Join(cerr, fmt.Errorf("obs: heap profile: %w", err))
		}
		runtime.GC() // materialize up-to-date heap statistics
		var werr, herr error
		if err := pprof.WriteHeapProfile(heap); err != nil {
			werr = fmt.Errorf("obs: heap profile: %w", err)
		}
		// A failed close can drop buffered profile data, so it is an error of
		// its own, not a cleanup detail.
		if err := heap.Close(); err != nil {
			herr = fmt.Errorf("obs: heap profile close: %w", err)
		}
		return errors.Join(cerr, werr, herr)
	}, nil
}

// RegisterPprofHandlers mounts the net/http/pprof handlers under
// /debug/pprof/ on mux. Importing net/http/pprof registers on
// http.DefaultServeMux as a side effect; the daemon serves its own mux, so
// the handlers are attached explicitly — and only when the operator opts in.
func RegisterPprofHandlers(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
}
