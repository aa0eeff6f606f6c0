#!/bin/sh
# Grep-based source lint for lib/.
#
# Rules:
#   1. No bare `failwith` in lib/ — library errors must be typed (a dedicated
#      exception, a `Result`, or a `Util.Diag` code) so callers can build
#      fallback chains instead of string-matching messages.
#   2. No polymorphic `compare` / `(=)` on abstract numeric containers via
#      `Stdlib.compare` — use the monomorphic `Float.compare`, `Int.compare`,
#      `String.compare`, or a module's own `compare`. (Heuristic: flag any
#      call of bare `compare` that is not module-qualified and not part of a
#      longer identifier.)
#   3. No `Mat.transpose` in lib/kle/ — the KLE hot paths must use
#      `Mat.mul_nt` (A·Bᵀ without materialising the transpose) or the
#      matrix-free operator instead of allocating an explicit transpose.
#   4. No `Unix.gettimeofday` / `Sys.time` in lib/ outside lib/util/trace.ml —
#      all timing goes through the single monotonic clock behind
#      `Util.Trace.now_ns` (and `Util.Timer` on top of it), so spans, timers
#      and counters are mutually comparable and immune to wall-clock jumps.
#   5. No `Marshal` in lib/ — persisted artifacts go through the explicit,
#      versioned, checksummed codec in lib/persist (`Persist.Codec` /
#      `Persist.Entity`). Marshal's format is compiler-dependent and a
#      corrupt blob can crash the reader instead of degrading to recompute.
#   6. Any file in lib/ that allocates named `scratch`/`workspace` buffers
#      (mutable state captured by a returned closure) must carry a
#      `re-entrancy:` comment explaining why concurrent calls are safe.
#      A shared scratch silently corrupts results when two domains call the
#      same closure, so the safety argument has to live next to the
#      allocation.
#   7. No bare `Domain.spawn` in lib/serve/ outside supervisor.ml — worker
#      domains must be started through `Serve.Supervisor.spawn` so every
#      crash hits the restart/backoff/quarantine policy. A domain spawned
#      directly dies silently on an uncaught exception and its jobs hang.
#   8. No uncalled export: every `val` in lib/*/*.mli must have its name
#      occur (as a word) in some .ml of lib/, bin/, bench/, perfbench/ or
#      examples/ other than its own implementation. The exceptions are
#      listed in tools/exports.allow, one `<mli> <name> <test file> <why>`
#      line each: values that the named test uses as an oracle or fixture.
#      The list only shrinks: an entry whose value gained a caller or was
#      deleted fails the rule, and so does one whose test file no longer
#      mentions the name.
#
# Exits non-zero and prints offending lines when a rule is violated.
#
# Usage: lint.sh [root]  — lints `root`/lib (default: the repo checkout
# containing this script); the argument exists so the test suite can point
# the rules at fixture trees.

set -eu

cd "${1:-$(dirname "$0")/..}"

status=0

fail() {
  echo "lint: $1" >&2
  echo "$2" >&2
  status=1
}

# Rule 1: bare failwith in lib/.
if matches=$(grep -rn --include='*.ml' --include='*.mli' 'failwith' lib/); then
  fail "bare failwith in lib/ — raise a typed exception or report through Util.Diag instead" "$matches"
fi

# Rule 2: unqualified polymorphic compare in lib/.
# Matches `compare` as a standalone identifier not preceded by a module dot
# or an identifier character, excluding definitions (`let compare`,
# `val compare`) and longer names like `compare_foo` / `foo_compare`.
if matches=$(grep -rnE --include='*.ml' --include='*.mli' \
  '(^|[^.A-Za-z0-9_])compare[^_A-Za-z0-9]' lib/ \
  | grep -vE '(let|val|and)[[:space:]]+compare' \
  | grep -vE '\([[:space:]]*compare[[:space:]]*\)' \
  | grep -vE '"compare"' \
  | grep -vE '^\s*[^:]*:[0-9]+:\s*\(\*' || true); then
  if [ -n "$matches" ]; then
    fail "unqualified polymorphic compare in lib/ — use Float.compare / Int.compare / String.compare or a module compare" "$matches"
  fi
fi

# Rule 3: no Mat.transpose in lib/kle/.
if matches=$(grep -rn --include='*.ml' --include='*.mli' 'Mat\.transpose' lib/kle/); then
  fail "Mat.transpose in lib/kle/ — use Mat.mul_nt or the matrix-free operator instead of materialising a transpose" "$matches"
fi

# Rule 4: non-monotonic clocks in lib/ (trace.ml owns the clock).
if matches=$(grep -rnE --include='*.ml' --include='*.mli' \
  'Unix\.gettimeofday|Sys\.time[^a-z_]|Sys\.time$' lib/ \
  | grep -v '^lib/util/trace\.ml:' || true); then
  if [ -n "$matches" ]; then
    fail "wall-clock timing in lib/ — use Util.Trace.now_ns / Util.Timer (monotonic) instead of Unix.gettimeofday or Sys.time" "$matches"
  fi
fi

# Rule 5: no Marshal in lib/ (persisted data uses Persist.Codec).
if matches=$(grep -rn --include='*.ml' --include='*.mli' 'Marshal\.' lib/); then
  fail "Marshal in lib/ — encode through Persist.Codec / Persist.Entity (explicit, versioned, checksummed) instead" "$matches"
fi

# Rule 6: scratch buffers need a documented re-entrancy story.
# A file that binds a `scratch` / `workspace` buffer must also contain a
# `re-entrancy:` comment; the pattern only looks at allocation sites
# (ref / Array.* / Mat.create) so loop-local reads of a scratch don't trip it.
if files=$(grep -rlE --include='*.ml' \
  'let[[:space:]]+(scratch|workspace)[A-Za-z0-9_]*[[:space:]:].*(ref[[:space:]]|Array\.(make|init|create_float)|Mat\.create)' \
  lib/ || true); then
  offenders=""
  for f in $files; do
    if ! grep -q 're-entrancy:' "$f"; then
      offenders="$offenders$f
"
    fi
  done
  if [ -n "$offenders" ]; then
    fail "scratch buffer without a re-entrancy comment — document why concurrent calls of the enclosing closure are safe (see lib/kle/hmatrix.ml)" "$offenders"
  fi
fi

# Rule 7: worker domains in lib/serve/ go through Supervisor.spawn.
if matches=$(grep -rn --include='*.ml' --include='*.mli' 'Domain\.spawn' lib/serve/ \
  | grep -v '^lib/serve/supervisor\.mli\?:' || true); then
  if [ -n "$matches" ]; then
    fail "bare Domain.spawn in lib/serve/ — start worker domains through Serve.Supervisor.spawn so crashes hit the restart/quarantine policy" "$matches"
  fi
fi

# Rule 8: every export has a caller outside its own module, or an entry in
# tools/exports.allow that names the test using it.
allow=tools/exports.allow
[ -f "$allow" ] || allow=/dev/null
vals=$(for mli in lib/*/*.mli; do
  [ -f "$mli" ] || continue
  sed -n 's/^[[:space:]]*val[[:space:]][[:space:]]*\([a-z_][A-Za-z0-9_]*\).*/\1/p' "$mli" \
    | sed "s|^|$mli |"
done)
srcs=$(find lib bin bench perfbench examples -name '*.ml' 2>/dev/null | sort)
# One pass over the sources counts, per word, the files it occurs in. A val
# is uncalled when its name occurs in no file or only in its own .ml; it must
# then be on the allowlist, and an allowlist entry must name an uncalled val.
if matches=$(printf '%s\n' "$vals" | awk -v allow="$allow" '
  FILENAME == "-" { if (NF == 2) { nv++; mli[nv] = $1; name[nv] = $2 }; next }
  FILENAME == allow {
    if ($0 !~ /^[[:space:]]*(#|$)/) listed[$1 " " $2] = 1
    next
  }
  FNR == 1 { split("", seen) }
  {
    n = split($0, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++)
      if (w[i] != "" && !(w[i] in seen)) {
        seen[w[i]] = 1
        if (count[w[i]]++ == 0) first[w[i]] = FILENAME
      }
  }
  END {
    for (i = 1; i <= nv; i++) {
      own = mli[i]; sub(/\.mli$/, ".ml", own)
      v = name[i]; key = mli[i] " " v
      if (count[v] == 0 || (count[v] == 1 && first[v] == own)) {
        uncalled[key] = 1
        if (!(key in listed)) print key ": no caller outside its own module"
      }
    }
    for (key in listed)
      if (!(key in uncalled))
        print key ": allowlisted but has a caller now (or is gone) - remove the entry"
  }' - "$allow" $srcs | sort); [ -n "$matches" ]; then
  fail "uncalled export in lib/ — delete it, drop it from the .mli, or, for a test oracle or fixture, list it in tools/exports.allow with the test that uses it" "$matches"
fi
# Each allowlist entry names a test file that uses the value.
if matches=$(grep -v '^[[:space:]]*\(#\|$\)' "$allow" | while read -r mli name test _; do
  grep -qw -- "$name" "$test" 2>/dev/null || echo "$mli $name: $test does not use it"
done); [ -n "$matches" ]; then
  fail "tools/exports.allow entry whose test does not use the value" "$matches"
fi

if [ "$status" -eq 0 ]; then
  echo "lint: OK"
fi
exit "$status"
