package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"uncharted/internal/service"
)

// host is an in-process control-room service on loopback, reached only
// through HTTP.
type host struct {
	svc     *service.Service
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	tenants []string
}

// liveConfig is the two-tenant control room: "live" tails capture with
// one worker, a historian, 500 ms snapshots and clustering; "fleet"
// aggregates probe partials without clustering.
func liveConfig(capture, histRoot string) service.Config {
	return service.Config{
		HistorianRoot: histRoot,
		Tenants: []service.TenantConfig{
			{
				Name:      "live",
				Source:    service.SourceConfig{Kind: "follow", Path: capture},
				Workers:   1,
				Historian: true,
				Snapshot:  service.Duration(500 * time.Millisecond),
				ClusterK:  5,
			},
			{Name: "fleet", Source: service.SourceConfig{Kind: "probe"}},
		},
	}
}

// startHost builds the service, starts its ingest and HTTP server, and
// waits until every tenant's readyz answers 200. The returned duration
// is the set-up time: service.New until ready.
func startHost(cfg service.Config, conns int) (*host, time.Duration, error) {
	start := time.Now()
	svc, err := service.New(cfg, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	svc.Start(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		return nil, 0, err
	}
	h := &host{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		tenants: svc.Tenants(),
	}
	go func() { h.served <- h.srv.Serve(ln) }()

	for _, t := range h.tenants {
		for {
			code, _, err := h.get("/v1/"+t+"/readyz", nil)
			if err == nil && code == http.StatusOK {
				break
			}
			if time.Since(start) > 60*time.Second {
				h.stop()
				return nil, 0, fmt.Errorf("tenant %s not ready after 60s (last status %d, %v)", t, code, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return h, time.Since(start), nil
}

// get fetches path, reading the body into buf when it is non-nil.
func (h *host) get(path string, buf *bytes.Buffer) (int, http.Header, error) {
	return h.do(http.MethodGet, path, nil, buf)
}

// do issues one request and drains the response.
func (h *host) do(method, path string, body []byte, buf *bytes.Buffer) (int, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if buf != nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header, err
}

// stop drains every tenant, then closes the host.
func (h *host) stop() error {
	h.svc.Drain()
	return h.close()
}

// close shuts the HTTP server down after a drain and reports any
// tenant's ingest error.
func (h *host) close() error {
	err := h.srv.Shutdown(context.Background())
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	for _, t := range h.tenants {
		if terr := h.svc.Tenant(t).Err(); terr != nil && err == nil {
			err = fmt.Errorf("tenant %s: %w", t, terr)
		}
	}
	return err
}

// jsonInt reads the first integer field named key of an indented
// JSON document, such as a profile's "packets" or "seq", without
// decoding the rest of it.
func jsonInt(body []byte, key string) (int64, bool) {
	tag := `"` + key + `": `
	i := bytes.Index(body, []byte(tag))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(tag):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return n, err == nil
}

// waitPackets polls a tenant's profile until it counts want packets or
// the timeout passes, and returns the last count seen.
func (h *host) waitPackets(tenant string, want int64, timeout time.Duration) (int64, error) {
	var buf bytes.Buffer
	end := time.Now().Add(timeout)
	var got int64 = -1
	for {
		code, _, err := h.get("/v1/"+tenant+"/profile", &buf)
		if err != nil {
			return got, err
		}
		if code == http.StatusOK {
			if n, ok := jsonInt(buf.Bytes(), "packets"); ok {
				got = n
			}
		}
		if got == want || time.Now().After(end) {
			return got, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// emptyCapture creates a capture file holding only the pcap header,
// which a follow tenant can open before any record is written.
func emptyCapture(dir string, header []byte) (string, error) {
	path := filepath.Join(dir, "live.pcap")
	return path, os.WriteFile(path, header, 0o644)
}
