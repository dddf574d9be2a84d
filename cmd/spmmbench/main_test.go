package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// SPMMBENCH_MAIN set, it runs main on its arguments, flag parsing and exit
// codes included.
func TestMain(m *testing.M) {
	if os.Getenv("SPMMBENCH_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func spmmbench(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SPMMBENCH_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestSpMVCampaignJournalsAndResumes: SpMV is -k 1, so it gets what every
// run gets — a kernel list, the campaign harness, a journal to resume from.
func TestSpMVCampaignJournalsAndResumes(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "spmv.jsonl")
	args := []string{"-kernel", "sellcs-omp,bell-serial", "-matrix", "dw4096", "-scale", "0.05",
		"-k", "1", "-t", "2", "-n", "2", "-schedule", "balanced", "-journal", journal}
	out, err := spmmbench(args...)
	if err != nil {
		t.Fatalf("campaign: %v\n%s", err, out)
	}
	lines, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\n", `"status":"ok"`, `"K":1,`, `"Verified":true,"MaxAbsDiff":0,`} {
		if strings.Count(string(lines), want) != 2 {
			t.Fatalf("want two journaled records holding %q:\n%s", want, lines)
		}
	}

	out, err = spmmbench(append(args, "-resume")...)
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, out)
	}
	if strings.Count(out, "replayed from journal") != 2 {
		t.Fatalf("want both runs replayed:\n%s", out)
	}
}

// TestRetiredFlagsAreGone: a stale command line fails flag parsing instead
// of quietly running something else. An SpMV run is -k 1, so -op is not a
// flag; every parallel kernel runs on the one pool -t sizes, so -pool is not
// one either.
func TestRetiredFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{{"-op", "spmv"}, {"-pool"}} {
		out, err := spmmbench(append(args, "-kernel", "csr-serial", "-matrix", "dw4096")...)
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 || !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Fatalf("%s: err %v, output:\n%s", args[0], err, out)
		}
	}
}
