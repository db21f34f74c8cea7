package main

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"dip"
	"dip/internal/experiments"
)

// TestRecordsGOMAXPROCS runs dipload in a child process started with
// GOMAXPROCS=3 against an in-process stand-in for dipserve, and requires
// the dip-load/v1 file to record the scheduler width the runtime took from
// the environment. The child is this test binary re-run with dipload's
// arguments after "--"; with such arguments the test acts as dipload's
// main.
func TestRecordsGOMAXPROCS(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"dipload"}, args...)
		flag.CommandLine = flag.NewFlagSet("dipload", flag.ExitOnError)
		main()
		return
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		var req dip.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := dip.Run(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		dip.WireReportFrom(rep, req.Options.Seed).Encode(w)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "load.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecordsGOMAXPROCS$", "--",
		"-url", srv.URL, "-n", "8", "-c", "2", "-requests", "4", "-json", path)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=3")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dipload: %v\n%s", err, out)
	}
	f, err := experiments.ReadLoadResultsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.GOMAXPROCS != 3 || f.Requests != 4 || f.Errors != 0 {
		t.Fatalf("gomaxprocs %d, requests %d, errors %d; want 3, 4, 0", f.GOMAXPROCS, f.Requests, f.Errors)
	}
}
