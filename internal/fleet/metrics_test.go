package fleet

import (
	"net/http"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"cadycore/internal/server"
	"cadycore/internal/testutil"
)

// TestMetricsGolden pins the coordinator's /metrics exposition byte for
// byte, its uptime masked: one backend, one job completed and one cancelled.
func TestMetricsGolden(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil, nil)
	done := decodeInfo(t, h.postJSON(t, "/jobs", server.JobSpec{Alg: "yz", PA: 2, PB: 2, M: 2, Steps: 2}, "acme"))
	h.waitJob(t, done.ID, "completed", 60*time.Second)
	long := decodeInfo(t, h.postJSON(t, "/jobs", server.JobSpec{Alg: "yz", PA: 2, PB: 2, M: 2, Steps: 100000}, "acme"))
	resp := h.postJSON(t, "/jobs/"+long.ID+"/cancel", nil, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	h.waitJob(t, long.ID, "cancelled", 60*time.Second)

	got := regexp.MustCompile(`(?m)^cady_fleet_uptime_seconds .*$`).
		ReplaceAllString(h.metricsText(t), "cady_fleet_uptime_seconds <uptime>")
	testutil.Golden(t, filepath.Join("testdata", "metrics.golden"), got)
}
