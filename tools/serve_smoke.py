#!/usr/bin/env python3
"""End-to-end smoke for the histkd daemon over its Unix socket.

Usage: serve_smoke.py PATH_TO_HISTKD [--out-dir DIR]

Two seeded scenarios, each against a freshly started daemon:

  1. serving mix — one client uploads a dataset (learn), then four
     concurrent clients fire 120 fingerprint-referencing estimates plus a
     sprinkle of test/closeness traffic. Every repeat estimate must come
     back `"cache": "hit"` with zero oracle draws; a rude client that
     disconnects without reading its response must not take the daemon
     down (SIGPIPE regression); a final stats request must account for
     all of it; a shutdown request must end the process with exit code 0
     even while another idle connection is still open (join-hang
     regression).
  2. over-admission burst — a daemon pinned to one session slot and a
     two-deep submit queue receives 48 cold learns at once. The governor
     and the queue must shed the overflow with typed `unavailable`
     responses carrying retry_after_ms, never a crash or a hang, while at
     least one learn still lands.
  3. split and joined lines — a 20,000-item inline `test` line (about
     70 KB, the shape of an ingest request) arrives in uneven writes that
     straddle the daemon's read sizes, and two complete lines arrive in one
     write. Every response must be `ok` and carry its request's id.

Request and response transcripts are written to --out-dir (default
"serve-out") as NDJSON so CI can schema-check every line with
check_report_json.py --request / --response. Exits nonzero on the first
violated expectation.
"""
import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time


# Every daemon start_daemon spawned. A failure kills the ones still
# running, so a failed scenario leaves no daemon behind.
DAEMONS = []


def stop_daemons():
    for proc in DAEMONS:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def fail(msg):
    print(f"serve_smoke: {msg}", file=sys.stderr)
    stop_daemons()
    sys.exit(1)


class Transcript:
    """Thread-safe NDJSON capture of everything sent and received."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = []
        self.responses = []

    def record(self, request_line, response_line):
        with self.lock:
            self.requests.append(request_line)
            self.responses.append(response_line)

    def dump(self, out_dir, prefix):
        os.makedirs(out_dir, exist_ok=True)
        for name, lines in (("requests", self.requests),
                            ("responses", self.responses)):
            with open(os.path.join(out_dir, f"{prefix}_{name}.ndjson"),
                      "w") as f:
                for line in lines:
                    f.write(line.rstrip("\n") + "\n")


class Client:
    """One line-oriented connection to the daemon socket."""

    def __init__(self, path, transcript):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.settimeout(60)
        self.buf = b""
        self.transcript = transcript

    def call(self, request):
        line = json.dumps(request)
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                fail(f"daemon closed the connection mid-request ({line})")
            self.buf += chunk
        raw, self.buf = self.buf.split(b"\n", 1)
        response_line = raw.decode()
        self.transcript.record(line, response_line)
        return json.loads(response_line)

    def send_raw(self, lines):
        self.sock.sendall("".join(l + "\n" for l in lines).encode())

    def read_responses(self, count):
        out = []
        while len(out) < count:
            while b"\n" not in self.buf:
                chunk = self.sock.recv(4096)
                if not chunk:
                    fail(f"connection closed after {len(out)}/{count} "
                         "responses")
                self.buf += chunk
            raw, self.buf = self.buf.split(b"\n", 1)
            out.append(raw.decode())
        return out

    def close(self):
        self.sock.close()


def start_daemon(binary, sock_path, extra_flags):
    proc = subprocess.Popen([binary, "--socket", sock_path] + extra_flags)
    DAEMONS.append(proc)
    for _ in range(200):
        if os.path.exists(sock_path):
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(sock_path)
                probe.close()
                return proc
            except OSError:
                pass
        if proc.poll() is not None:
            fail(f"daemon exited early with {proc.returncode}")
        time.sleep(0.05)
    fail("daemon never opened its socket")


ITEMS = [v % 4 * 64 + (v * 2654435761 % 64) for v in range(2000)]


def serving_mix(binary, out_dir):
    transcript = Transcript()
    sock_path = os.path.join(tempfile.mkdtemp(prefix="histkd-smoke-"),
                             "histkd.sock")
    proc = start_daemon(binary, sock_path, ["--workers", "4"])

    main = Client(sock_path, transcript)
    learn = main.call({"id": "seed-learn", "kind": "learn", "k": 4,
                       "eps": 0.3, "scale": 0.25, "seed": 7,
                       "dataset": {"items": ITEMS}})
    if learn["status"] != "ok" or learn["cache"] != "miss":
        fail(f"seed learn did not run cold: {learn}")
    fingerprint = learn["fingerprint"]

    # Four concurrent clients, 30 repeat estimates each: every one must be
    # answered from the synopsis cache without touching the oracle.
    errors = []

    def estimator(worker):
        try:
            client = Client(sock_path, transcript)
            for i in range(30):
                resp = client.call({
                    "id": f"est-{worker}-{i}", "kind": "estimate", "k": 4,
                    "eps": 0.3, "scale": 0.25, "seed": 7,
                    "quantiles": [0.25, 0.5, 0.9],
                    "ranges": [[0, 64], [64, 192]],
                    "dataset": {"fingerprint": fingerprint}})
                if resp["status"] != "ok":
                    errors.append(f"estimate {resp['id']}: {resp}")
                    return
                if resp["cache"] != "hit":
                    errors.append(f"estimate {resp['id']} missed the cache")
                    return
                drawn = resp["report"]["telemetry"]["samples_drawn"]
                if drawn != 0:
                    errors.append(
                        f"cache hit {resp['id']} drew {drawn} samples")
                    return
            client.close()
        except Exception as e:  # surfaced as a failure, not a hang
            errors.append(f"estimator {worker}: {e}")

    threads = [threading.Thread(target=estimator, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()

    # Meanwhile the main client mixes in other kinds against the same
    # fingerprint (test) and a fresh inline pair (closeness).
    test = main.call({"id": "mix-test", "kind": "test", "k": 4, "eps": 0.5,
                      "scale": 0.25, "seed": 11,
                      "dataset": {"fingerprint": fingerprint}})
    if test["status"] != "ok":
        fail(f"mixed-in test request failed: {test}")
    close = main.call({"id": "mix-close", "kind": "closeness", "k": 3,
                       "k2": 5, "n": 8, "scale": 0.5, "seed": 13,
                       "dataset": {"items": [0, 1, 2, 3, 4, 5, 6, 7]},
                       "other": {"items": [0, 1, 2, 3, 4, 5, 6, 7]}})
    if close["status"] != "ok":
        fail(f"mixed-in closeness request failed: {close}")

    for t in threads:
        t.join()
    if errors:
        fail("; ".join(errors[:3]))

    # A rude client: fire a request and slam the connection shut without
    # reading the response. The daemon must shrug (EPIPE on that one
    # connection), not die of SIGPIPE — the stats call below proves it is
    # still serving.
    rude = Client(sock_path, transcript)
    rude.send_raw([json.dumps({"id": "rude", "kind": "estimate", "k": 4,
                               "eps": 0.3, "scale": 0.25, "seed": 7,
                               "quantiles": [0.5],
                               "dataset": {"fingerprint": fingerprint}})])
    rude.close()

    stats = main.call({"id": "stats", "kind": "stats"})
    s = stats["stats"]
    if s["cache"]["hits"] < 120:
        fail(f"expected >= 120 cache hits, stats says {s['cache']['hits']}")
    # 1 learn + 120 estimates + test + closeness; the stats request itself
    # snapshots before it is accounted.
    if s["requests"]["total"] < 123:
        fail(f"stats lost requests: {s['requests']}")

    # An idle connection held open across shutdown: the daemon must not
    # block joining its reader thread waiting for a line that never comes.
    idler = Client(sock_path, transcript)
    down = main.call({"id": "bye", "kind": "shutdown"})
    if down["status"] != "ok":
        fail(f"shutdown request failed: {down}")
    main.close()
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        fail("daemon hung on shutdown with an idle connection open")
    idler.close()
    if code != 0:
        fail(f"daemon exited {code} after shutdown (want 0)")
    transcript.dump(out_dir, "mix")
    print(f"serve_smoke: serving mix ok ({s['requests']['total']} requests, "
          f"{s['cache']['hits']} cache hits)")


def over_admission_burst(binary, out_dir):
    transcript = Transcript()
    sock_path = os.path.join(tempfile.mkdtemp(prefix="histkd-burst-"),
                             "histkd.sock")
    proc = start_daemon(binary, sock_path, [
        "--workers", "2", "--max-sessions", "1", "--queue-limit", "2",
        "--retry-after-ms", "15"])

    client = Client(sock_path, transcript)
    upload = client.call({"id": "burst-seed", "kind": "learn", "k": 4,
                          "eps": 0.3, "scale": 0.25, "seed": 7,
                          "dataset": {"items": ITEMS}})
    if upload["status"] != "ok":
        fail(f"burst seed learn failed: {upload}")
    fingerprint = upload["fingerprint"]

    # 48 cold learns (every seed fragments the synopsis key) fired in one
    # write against one session slot and a two-deep queue: the daemon must
    # shed the overflow with typed 503s, not block or crash.
    requests = [json.dumps({
        "id": f"burst-{i}", "kind": "learn", "k": 4, "eps": 0.3,
        "scale": 0.25, "seed": 1000 + i,
        "dataset": {"fingerprint": fingerprint}}) for i in range(48)]
    client.send_raw(requests)
    responses = client.read_responses(48)
    for req, resp in zip(requests, sorted(
            responses, key=lambda r: int(json.loads(r)["id"].split("-")[1]))):
        transcript.record(req, resp)

    served = rejected = 0
    for raw in responses:
        resp = json.loads(raw)
        if resp["status"] == "ok":
            served += 1
        elif resp["status"] == "unavailable":
            rejected += 1
            if resp.get("retry_after_ms", -1) < 0:
                fail(f"503 without retry_after_ms: {resp}")
            if not resp["degraded"]:
                fail(f"503 not marked degraded: {resp}")
        else:
            fail(f"burst produced an untyped failure: {resp}")
    if served < 1:
        fail("burst starved completely; expected at least one learn to land")
    if rejected < 1:
        fail("48-deep burst into 1 slot + 2-deep queue produced no 503s")

    down = client.call({"id": "bye", "kind": "shutdown"})
    if down["status"] != "ok":
        fail(f"shutdown request failed: {down}")
    client.close()
    code = proc.wait(timeout=30)
    if code != 0:
        fail(f"daemon exited {code} after shutdown (want 0)")
    transcript.dump(out_dir, "burst")
    print(f"serve_smoke: over-admission burst ok ({served} served, "
          f"{rejected} typed rejections)")


def split_and_joined_lines(binary, out_dir):
    items = [(v * 2654435761) % 1024 for v in range(20000)]
    big = json.dumps({"id": "split-big", "kind": "test", "k": 4, "eps": 0.3,
                      "norm": "l2", "n": 1024, "scale": 0.25, "seed": 17,
                      "dataset": {"items": items}},
                     separators=(",", ":")) + "\n"
    data = big.encode()
    cuts = [1, 4095, 4097, 65537]
    if sum(cuts) >= len(data):
        fail(f"split line is only {len(data)} bytes")
    transcript = Transcript()
    sock_path = os.path.join(tempfile.mkdtemp(prefix="histkd-split-"),
                             "histkd.sock")
    proc = start_daemon(binary, sock_path, ["--workers", "2"])
    client = Client(sock_path, transcript)

    # Pieces of 1, 4095, 4097 and 65,537 bytes, then the rest, each its own
    # write with a pause between: the line reaches the daemon in reads that
    # end at uneven offsets, one piece longer than its 64 KiB read size.
    at = 0
    for size in cuts + [len(data) - sum(cuts)]:
        client.sock.sendall(data[at:at + size])
        at += size
        time.sleep(0.02)
    pair = [json.dumps({"id": f"joined-{i}", "kind": "test", "k": 4,
                        "eps": 0.3, "norm": "l2", "n": 1024, "scale": 0.25,
                        "seed": 20 + i, "dataset": {"items": items[:2000]}})
            for i in range(2)]
    client.send_raw(pair)
    sent = [big.rstrip("\n")] + pair
    responses = client.read_responses(3)
    by_id = {}
    for raw in responses:
        resp = json.loads(raw)
        by_id[resp["id"]] = raw
        if resp["status"] != "ok":
            fail(f"split/joined request {resp['id']} failed: {resp}")
    for line in sent:
        rid = json.loads(line)["id"]
        if rid not in by_id:
            fail(f"no response for {rid}; got ids {sorted(by_id)}")
        transcript.record(line, by_id[rid])

    down = client.call({"id": "bye", "kind": "shutdown"})
    if down["status"] != "ok":
        fail(f"shutdown request failed: {down}")
    client.close()
    code = proc.wait(timeout=30)
    if code != 0:
        fail(f"daemon exited {code} after shutdown (want 0)")
    transcript.dump(out_dir, "split")
    print(f"serve_smoke: split and joined lines ok ({len(data)}-byte line "
          f"in {len(cuts) + 1} writes, 2 lines in one write)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("binary", help="path to the histkd executable")
    parser.add_argument("--out-dir", default="serve-out",
                        help="directory for request/response transcripts")
    args = parser.parse_args()
    # Any other way out (an exception, a timeout) stops the daemons too.
    try:
        serving_mix(args.binary, args.out_dir)
        over_admission_burst(args.binary, args.out_dir)
        split_and_joined_lines(args.binary, args.out_dir)
    finally:
        stop_daemons()
    print("serve_smoke: all scenarios passed")


if __name__ == "__main__":
    main()
