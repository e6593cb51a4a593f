package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// vaqdProc is one running vaqd process started by the benchmark.
type vaqdProc struct {
	cmd     *exec.Cmd
	addr    string
	drained sync.WaitGroup // the stdout reader
}

// startVaqd launches bin with -addr 127.0.0.1:0 plus args and waits for
// its "listening on" line. The child is killed if the benchmark dies.
func startVaqd(bin string, args ...string) (*vaqdProc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vaqd: %w", err)
	}
	p := &vaqdProc{cmd: cmd}
	addr := make(chan string, 1)
	p.drained.Add(1)
	go func() {
		defer p.drained.Done()
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case p.addr = <-addr:
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("vaqd %v: no listening line within 30s", args)
	}
}

// stop ends the process (SIGTERM, then SIGKILL after five seconds) and
// waits for it and its output reader.
func (p *vaqdProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	p.drained.Wait()
}

// peakRSS is the process's VmHWM in MB.
func (p *vaqdProc) peakRSS() (float64, error) {
	return vmHWM(strconv.Itoa(p.cmd.Process.Pid))
}

// httpClient is shared by the benchmark's closed-loop clients: two
// clients, so two idle keep-alive connections per host suffice.
var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 2},
}

// call sends one request and returns the status and body.
func call(method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// callJSON sends one request, requires the wanted status and decodes
// the body into out.
func callJSON(method, url string, body any, want int, out any) ([]byte, error) {
	code, b, err := call(method, url, body)
	if err != nil {
		return nil, err
	}
	if code != want {
		return b, fmt.Errorf("%s %s: status %d: %s", method, url, code, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return b, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return b, nil
}

// varz fetches a /varz page and returns its counter and stage lines as
// name → value (stage lines keep their {labels}).
func varz(addr string) (map[string]float64, error) {
	code, b, err := call(http.MethodGet, "http://"+addr+"/varz", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/varz: status %d", addr, code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
