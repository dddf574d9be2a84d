// Package wiretest records HTTP response heads as a server puts them on the
// wire and holds them to golden files, for the tests that pin the multiply
// response heads of spmmserve and spmmrouter.
package wiretest

import (
	"bufio"
	"flag"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

var write = flag.Bool("write-wire", false, "rewrite the response-head golden files from this tree")

// RawHead posts body to base+path over a connection of its own and returns
// the response's status line and header lines exactly as they came, one per
// line. Date and the headers named in masked vary run to run; their values
// read "<varies>".
func RawHead(t testing.TB, base, path string, header []string, body []byte, chunked bool, masked ...string) string {
	t.Helper()
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	req := "POST " + path + " HTTP/1.1\r\nHost: " + addr + "\r\nConnection: close\r\nContent-Type: application/octet-stream\r\n"
	for _, h := range header {
		req += h + "\r\n"
	}
	if chunked {
		req += "Transfer-Encoding: chunked\r\n\r\n" + strconv.FormatInt(int64(len(body)), 16) + "\r\n" + string(body) + "\r\n0\r\n\r\n"
	} else {
		req += "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + string(body)
	}
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var head strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the response head: %v (so far %q)", err, head.String())
		}
		if !strings.HasSuffix(line, "\r\n") {
			t.Fatalf("response line %q does not end in CRLF", line)
		}
		line = strings.TrimSuffix(line, "\r\n")
		if line == "" {
			return head.String()
		}
		if name, _, ok := strings.Cut(line, ": "); ok && (name == "Date" || contains(masked, name)) {
			line = name + ": <varies>"
		}
		head.WriteString(line + "\n")
	}
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// CheckGolden compares got with the golden file at path, or writes it there
// when the test binary runs with -write-wire.
func CheckGolden(t testing.TB, path, got string) {
	t.Helper()
	if *write {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("response heads differ from %s\n--- got\n%s--- want\n%s", path, got, want)
	}
}
