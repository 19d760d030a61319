# Shell helpers for the workflow's steps, which source this file from the
# repository root: `. .github/ci.sh`.

# pin SHA256 ARGS...: the sha256 of the stdout of `gact.cli ARGS` is SHA256
pin() {
  want=$1; shift
  got=$(PYTHONPATH=src python -m gact.cli "$@" | sha256sum | cut -d' ' -f1)
  echo "$got $*"
  test "$got" = "$want"
}

# peak SECONDS BOUND_MB WANT ARGS...: `gact.cli ARGS` runs as the only child of
# a fresh wrapper, under a timeout of SECONDS; it must succeed, print exactly
# the line WANT (nothing at all when WANT is empty), and have a peak RSS of at
# most BOUND_MB, read from RUSAGE_CHILDREN
peak() {
  seconds=$1; shift
  PYTHONPATH=src timeout "$seconds" python -c '
import resource, subprocess, sys
bound, want, *args = sys.argv[1:]
out = subprocess.run([sys.executable, "-m", "gact.cli", *args], check=True, capture_output=True, text=True).stdout
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(out.strip(), f"child peak RSS {rss:.1f} MB")
sys.exit(out != (want + "\n" if want else "") or rss > float(bound))' "$@"
}
