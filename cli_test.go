package topicscope_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netmeasure/topicscope/internal/durable"
)

// TestCLIPipeline builds the real binaries and drives the decomposed
// workflow the README documents: topics-world → topics-crawl →
// topics-analyze. Guarded by -short because it shells out to the Go
// toolchain.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI pipeline")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }

	for _, tool := range []string{"topics-world", "topics-crawl", "topics-analyze"} {
		cmd := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	list := filepath.Join(dir, "tranco.csv")
	spec := filepath.Join(dir, "world.json")
	out := run("topics-world", "-seed", "9", "-sites", "300",
		"-list", list, "-spec", spec,
		"-allowlist", filepath.Join(dir, "preload.dat"), "-corrupt")
	if !strings.Contains(out, "CORRUPTED") {
		t.Errorf("topics-world output: %s", out)
	}
	if fi, err := os.Stat(spec); err != nil || fi.Size() == 0 {
		t.Fatalf("world spec missing: %v", err)
	}

	crawl := filepath.Join(dir, "crawl.jsonl.gz")
	attest := filepath.Join(dir, "attest.jsonl")
	allow := filepath.Join(dir, "allow.dat")
	out = run("topics-crawl", "-seed", "9", "-sites", "300", "-quiet",
		"-out", crawl, "-attest", attest, "-allowlist", allow)
	if !strings.Contains(out, "attempted=300") {
		t.Errorf("topics-crawl output: %s", out)
	}

	// Resume over the same output is a no-op crawl.
	out = run("topics-crawl", "-seed", "9", "-sites", "300", "-quiet", "-resume",
		"-out", crawl, "-attest", attest, "-allowlist", allow)
	if !strings.Contains(out, "skipping 300") || !strings.Contains(out, "attempted=0") {
		t.Errorf("resume output: %s", out)
	}

	csv := filepath.Join(dir, "calls.csv")
	out = run("topics-analyze", "-data", crawl, "-attest", attest,
		"-allowlist", allow, "-exp", "T1", "-csv", csv)
	if !strings.Contains(out, "Allowed") || !strings.Contains(out, "193") {
		t.Errorf("topics-analyze T1 output: %s", out)
	}
	csvBytes, err := os.ReadFile(csv)
	if err != nil || !strings.HasPrefix(string(csvBytes), "site,rank,phase,caller") {
		t.Errorf("calls CSV: %v", err)
	}

	for _, exp := range []string{"D1", "D1R", "D2", "F2", "F3", "A1", "F5", "F6", "F7", "E1", "X1", "all"} {
		out := run("topics-analyze", "-data", crawl, "-attest", attest,
			"-allowlist", allow, "-exp", exp)
		if len(out) == 0 {
			t.Errorf("experiment %s produced no output", exp)
		}
	}

	// Longitudinal mode: compare the crawl with itself — zero drift.
	out = run("topics-analyze", "-data", crawl, "-data2", crawl,
		"-attest", attest, "-allowlist", allow)
	if !strings.Contains(out, "max drift: 0.0%") {
		t.Errorf("self-comparison should have zero drift:\n%s", out)
	}
}

// TestCLIShardedCampaign drives the distributed pipeline end to end
// with real worker processes: topics-orch -worker-bin spawns
// topics-crawl -shard workers, merges their journals, and the merged
// dataset must be byte-identical to a plain single-process topics-crawl
// of the same campaign. topics-monitor -shards then renders the status
// files the workers left behind.
func TestCLIShardedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping sharded CLI campaign")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"topics-crawl", "topics-orch", "topics-monitor"} {
		cmd := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(t *testing.T, name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	base := []string{"-seed", "9", "-sites", "120", "-quiet", "-chaos", "-chaos-seed", "5"}
	for _, row := range []struct {
		name string
		args []string
	}{
		{"defaults", nil},
		// The exec workers must carry every campaign flag, not just the
		// ones topics-crawl had first.
		{"date-vantage-budget", []string{"-date", "2024-01-15", "-vantage", "us", "-visit-budget-ms", "30000"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			campaign := append(append([]string{}, base...), row.args...)

			single := filepath.Join(dir, "single.jsonl")
			run(t, "topics-crawl", append(campaign,
				"-out", single,
				"-attest", filepath.Join(dir, "sa.jsonl"),
				"-allowlist", filepath.Join(dir, "sal.dat"))...)

			merged := filepath.Join(dir, "merged.jsonl")
			report := filepath.Join(dir, "report.json")
			out := run(t, "topics-orch", append(campaign,
				"-shards", "4", "-worker-bin", bin("topics-crawl"),
				"-out", merged, "-report", report,
				"-attest", filepath.Join(dir, "ma.jsonl"),
				"-allowlist", filepath.Join(dir, "mal.dat"))...)
			if !strings.Contains(out, "4 shards, 0 restarts") {
				t.Errorf("topics-orch output: %s", out)
			}

			singleBytes, err := durable.CanonicalBytes(single)
			if err != nil {
				t.Fatal(err)
			}
			mergedBytes, err := durable.CanonicalBytes(merged)
			if err != nil {
				t.Fatal(err)
			}
			if len(singleBytes) == 0 || !bytes.Equal(singleBytes, mergedBytes) {
				t.Fatalf("exec-sharded dataset differs from single-process crawl (%d vs %d bytes)", len(mergedBytes), len(singleBytes))
			}
			if fi, err := os.Stat(report); err != nil || fi.Size() == 0 {
				t.Fatalf("report artifact missing: %v", err)
			}

			out = run(t, "topics-monitor", "-shards", merged)
			if !strings.Contains(out, "(4 shards)") || !strings.Contains(out, "done") {
				t.Errorf("topics-monitor -shards output: %s", out)
			}
		})
	}
}

// TestCLIFsckRepairsNoRetryCampaign: a campaign crawled with -retries 0
// and repaired with the same flags comes back byte-identical. fsck once
// read its -retries 0 as the library's "default retries" and recrawled
// the quarantined window with three attempts per fetch.
func TestCLIFsckRepairsNoRetryCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping fsck CLI repair")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"topics-crawl", "topics-fsck"} {
		cmd := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin(name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	campaign := []string{"-seed", "3", "-sites", "300", "-chaos", "-chaos-seed", "4", "-retries", "0"}
	journal := filepath.Join(dir, "crawl.jsonl")
	run("topics-crawl", append(campaign, "-quiet",
		"-out", journal,
		"-attest", filepath.Join(dir, "a.jsonl"),
		"-allowlist", filepath.Join(dir, "al.dat"))...)
	want, err := durable.CanonicalBytes(journal)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 2; i < len(raw)/2+8; i++ {
		raw[i] ^= 0xff
	}
	if err := os.WriteFile(journal, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out := run("topics-fsck", append(campaign, "-data", journal, "-repair")...)
	if !strings.Contains(out, "ranks recrawled") {
		t.Fatalf("fsck repaired nothing: %s", out)
	}
	got, err := durable.CanonicalBytes(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("repaired dataset differs from the original crawl (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCLITLSPipeline drives topics-serve -tls and topics-crawl
// -connect-tls over a real HTTPS listener.
func TestCLITLSPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping TLS CLI pipeline")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"topics-serve", "topics-crawl"} {
		cmd := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	caPath := filepath.Join(dir, "ca.pem")
	serve := exec.Command(bin("topics-serve"), "-seed", "13", "-sites", "120",
		"-addr", "127.0.0.1:0", "-tls", "-ca-cert", caPath)
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill() //nolint:errcheck // test teardown

	// Parse the bound address from the banner line.
	buf := make([]byte, 4096)
	n, _ := stdout.Read(buf)
	banner := string(buf[:n])
	i := strings.Index(banner, "https://")
	if i < 0 {
		t.Fatalf("no https address in banner: %q", banner)
	}
	addr := banner[i+len("https://"):]
	addr = strings.Fields(addr)[0]

	out, err := exec.Command(bin("topics-crawl"), "-seed", "13", "-sites", "120",
		"-quiet", "-connect-tls", addr, "-ca-cert", caPath,
		"-out", filepath.Join(dir, "c.jsonl"),
		"-attest", filepath.Join(dir, "a.jsonl"),
		"-allowlist", filepath.Join(dir, "al.dat")).CombinedOutput()
	if err != nil {
		t.Fatalf("topics-crawl over TLS: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "attempted=120") {
		t.Errorf("TLS crawl output: %s", out)
	}
}
