package main

import (
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
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
	if actAsMain() {
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

// actAsMain runs dipload's main when this test binary was re-run with
// dipload's arguments after "--", and reports whether it did.
func actAsMain() bool {
	args := flag.Args()
	if len(args) == 0 {
		return false
	}
	os.Args = append([]string{"dipload"}, args...)
	flag.CommandLine = flag.NewFlagSet("dipload", flag.ExitOnError)
	main()
	return true
}

// TestFailedLoadWritesFile runs dipload against a stand-in service that
// answers 500 to every run request. The dip-load/v1 file must still be
// written with every attempt counted as an error, and dipload must exit 1.
func TestFailedLoadWritesFile(t *testing.T) {
	if actAsMain() {
		return
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected failure", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const attempts = 6
	path := filepath.Join(t.TempDir(), "load.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedLoadWritesFile$", "--",
		"-url", srv.URL, "-n", "8", "-c", "2", "-requests", strconv.Itoa(attempts), "-json", path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("dipload exit: %v, want status 1\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no results file after a failed load: %v\n%s", err, out)
	}
	var f experiments.LoadResultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != experiments.LoadSchema || f.Requests != 0 || f.Errors != attempts {
		t.Fatalf("schema %q, requests %d, errors %d; want %q, 0, %d", f.Schema, f.Requests, f.Errors, experiments.LoadSchema, attempts)
	}
	if len(f.Protocols) != 1 || f.Protocols[0].Errors != attempts {
		t.Fatalf("per-protocol results %+v, want one with %d errors", f.Protocols, attempts)
	}
}
