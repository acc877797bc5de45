package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lmc/internal/service"
	"lmc/internal/store"
)

func TestHTTPAPI(t *testing.T) {
	st := openStore(t)
	s := service.New(service.Config{Store: st})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil && resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	post := func(path, body string, into any) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil && resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	// Bad submissions are 400s.
	if code := post("/jobs", "{not json", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", code)
	}
	if code := post("/jobs", `{"workload":"no-such"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown workload: %d", code)
	}

	// Submit, then poll the job to completion through the API.
	var sub service.JobStatus
	if code := post("/jobs", `{"id":"web","workload":"paxos"}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if sub.ID != "web" || sub.State != service.StateQueued {
		t.Fatalf("submission status: %+v", sub)
	}
	deadline := time.Now().Add(2 * time.Minute)
	var got service.JobStatus
	for {
		if code := getJSON("/jobs/web", &got); code != http.StatusOK {
			t.Fatalf("get job: %d", code)
		}
		if got.State != service.StateQueued && got.State != service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished over HTTP")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.State != service.StateDone || got.Result == nil || !got.Result.Complete {
		t.Fatalf("job over HTTP: %+v", got)
	}

	var jobs []service.JobStatus
	if code := getJSON("/jobs", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Fatalf("list: code=%d n=%d", code, len(jobs))
	}

	// The store surface shows the finished bucket.
	var runs []store.RunMeta
	if code := getJSON("/runs", &runs); code != http.StatusOK || len(runs) != 1 || !runs[0].Done {
		t.Fatalf("runs: code=%d %+v", code, runs)
	}

	// Workload discovery names at least the bench registry's paxos entry.
	var wl []struct{ Name string }
	if code := getJSON("/workloads", &wl); code != http.StatusOK || len(wl) == 0 {
		t.Fatalf("workloads: %d", code)
	}

	// Unknown-job routes 404.
	if code := getJSON("/jobs/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost get: %d", code)
	}
	if code := post("/jobs/ghost/cancel", "", nil); code != http.StatusNotFound {
		t.Fatalf("ghost cancel: %d", code)
	}
	// Cancel of the finished job is also a 404 (nothing to stop).
	if code := post("/jobs/web/cancel", "", nil); code != http.StatusNotFound {
		t.Fatalf("finished cancel: %d", code)
	}
}

// TestHTTPRefusals: a full queue answers 503 without wedging the status
// routes, and an oversized body is cut off rather than buffered.
func TestHTTPRefusals(t *testing.T) {
	s := service.New(service.Config{Store: openStore(t)}) // no Run: nothing drains
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	huge := `{"workload":"` + strings.Repeat("a", 2<<20) + `"}`
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: %d", code)
	}

	for i := 0; i < 1024; i++ {
		if _, err := s.Submit(service.JobSpec{Workload: "tree"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if code := post(`{"workload":"tree"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit to a full queue: %d", code)
	}
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list with a full queue: %d", resp.StatusCode)
	}
}
