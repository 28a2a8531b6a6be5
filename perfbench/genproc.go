package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// genProc is the stack side's handle on the generator process.
type genProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	msgs  chan genMsg
	done  chan error
	hello genMsg

	mu sync.Mutex // serialises command lines
}

// genProcs is the generator's GOMAXPROCS: never more than the machine's
// CPUs, and two are enough for its beat loop and two HTTP clients.
func genProcs() int { return min(2, runtime.NumCPU()) }

func startGen(w workload, seed int64) (*genProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(exe, "gen", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(genProcs()))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start generator: %w", err)
	}
	g := &genProc{cmd: cmd, stdin: stdin, msgs: make(chan genMsg, 16), done: make(chan error, 1)}
	go func() {
		defer close(g.msgs)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<16), 64<<20)
		for sc.Scan() {
			var m genMsg
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				m = genMsg{Op: "error", Err: fmt.Sprintf("bad generator line: %v", err)}
			}
			g.msgs <- m
		}
	}()
	go func() { g.done <- cmd.Wait() }()
	g.hello, err = g.await("hello", 30*time.Second)
	if err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// send writes one command line; a dead generator surfaces at the next
// await.
func (g *genProc) send(line string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, _ = io.WriteString(g.stdin, line+"\n")
}

func (g *genProc) await(op string, timeout time.Duration) (genMsg, error) {
	select {
	case m, ok := <-g.msgs:
		switch {
		case !ok:
			return m, errors.New("generator exited")
		case m.Op == "error":
			return m, fmt.Errorf("generator: %s", m.Err)
		case m.Op != op:
			return m, fmt.Errorf("generator answered %q, want %q", m.Op, op)
		}
		return m, nil
	case <-time.After(timeout):
		return genMsg{}, fmt.Errorf("generator: no %q within %v", op, timeout)
	}
}

// close ends the generator (closing its stdin makes it exit) and waits
// for it, killing it if it does not exit promptly.
func (g *genProc) close() {
	g.mu.Lock()
	_ = g.stdin.Close()
	g.mu.Unlock()
	select {
	case <-g.done:
	case <-time.After(5 * time.Second):
		g.kill()
	}
}

// kill stops the generator at once and waits for it to exit.
func (g *genProc) kill() {
	_ = g.cmd.Process.Kill()
	<-g.done
}

func itoa(i int) string     { return strconv.Itoa(i) }
func itoa64(i int64) string { return strconv.FormatInt(i, 10) }
