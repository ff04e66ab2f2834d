#!/bin/sh
# CI gate: warning-strict build and the full test suite under the ci
# dune profile, then the static analyzer over every generated site via
# `make check` (which itself runs the ci-profile build and tests, so a
# plain `./ci.sh` is the one command a CI job needs).
set -eu

cd "$(dirname "$0")"

echo "== dune build (ci profile) =="
dune build --profile ci @all

echo "== dune runtest (ci profile) =="
dune runtest --profile ci

echo "== make check (static analyzer) =="
make check

echo "== make analyze (semantic analyzer, fails on E06xx) =="
make analyze

echo "== smoke scale: 2-domain serve over a scaled site =="
dune exec --profile ci bin/webviews_cli.exe -- serve \
  --profs 300 --courses 600 --queries 32 --domains 2 --latency \
  | tail -n 12

echo "== smoke churn: live mutations, generous budget, zero SLA violations =="
dune exec --profile ci bin/webviews_cli.exe -- churn \
  --depts 2 --profs 6 --courses 10 --churn-rate 0.2 --budget 500 \
  --max-age 30 --queries 24 --fail-on-violation \
  | tail -n 8

echo "== smoke views: one view-substituted query end to end =="
dune exec --profile ci bin/webviews_cli.exe -- query --views \
  "SELECT p.PName, p.Email FROM Professor p" \
  | tee /tmp/ci_views_smoke.$$ | head -n 4
grep -q "view Professor" /tmp/ci_views_smoke.$$ \
  || { echo "view substitution missing from query --views"; rm -f /tmp/ci_views_smoke.$$; exit 1; }
rm -f /tmp/ci_views_smoke.$$

echo "== smoke bindings: form-only query planned and executed via a composition of forms =="
dune exec --profile ci bin/webviews_cli.exe -- query --site formsite \
  "SELECT P.PName, P.Office FROM Course C, Professor P WHERE C.Dept = 'cs' AND C.Instructor = P.PName" \
  | tee /tmp/ci_bindings_smoke.$$ | head -n 10
# the plan must reach the data through parameterized calls (no
# navigation exists on the form-only site) ...
grep -q "⇒ DeptPage" /tmp/ci_bindings_smoke.$$ \
  || { echo "no call composition in the form-only plan"; rm -f /tmp/ci_bindings_smoke.$$; exit 1; }
# ... and return exactly the generator's rows (11 at the default
# seed/sizes; any mismatch changes the count or the rendering)
grep -q "(11 rows)" /tmp/ci_bindings_smoke.$$ \
  || { echo "form-only query rows diverged from the expected answer"; rm -f /tmp/ci_bindings_smoke.$$; exit 1; }
rm -f /tmp/ci_bindings_smoke.$$
# a covered-but-unanswerable query must fail analyze with E0111 (exit 2)
if dune exec --profile ci bin/webviews_cli.exe -- analyze --site formsite --format=json \
     "SELECT P.PName FROM Professor P WHERE P.Office = 'Bldg A, room 100'" \
     > /tmp/ci_bindings_analyze.$$ 2>&1; then
  echo "analyze accepted an unanswerable form-only query"; rm -f /tmp/ci_bindings_analyze.$$; exit 1
fi
grep -q '"code":"E0111"' /tmp/ci_bindings_analyze.$$ \
  || { echo "E0111 missing from analyze --format=json"; rm -f /tmp/ci_bindings_analyze.$$; exit 1; }
rm -f /tmp/ci_bindings_analyze.$$

echo "== bench bindings: a rewriting at 10/100/500 path views, identical rows, fewer GETs than the oracle =="
# Run from a scratch directory so the committed BENCH_bindings.json is
# left alone; the benchmark exits nonzero when an acceptance check fails.
ci_bench_dir=$(mktemp -d)
repo_dir=$(pwd)
( cd "$ci_bench_dir" && dune exec --root "$repo_dir" --profile ci bench/main.exe -- bindings ) \
  > "$ci_bench_dir/out" 2>&1 \
  || { cat "$ci_bench_dir/out"; rm -rf "$ci_bench_dir"; exit 1; }
sed -n '/^path views/,/^$/p' "$ci_bench_dir/out"
rm -rf "$ci_bench_dir"

echo "== smoke front end: bad SQL exits 2 with a diagnostic code, never 125 =="
for bad in "SELEC x" "SELECT z.Foo FROM Nope z"; do
  status=0
  dune exec --profile ci bin/webviews_cli.exe -- query "$bad" \
    > /tmp/ci_front_end.$$ 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "query \"$bad\" exited $status, expected 2"; cat /tmp/ci_front_end.$$
    rm -f /tmp/ci_front_end.$$; exit 1
  fi
  grep -q "error\[E03[0-9][0-9]\]" /tmp/ci_front_end.$$ \
    || { echo "no diagnostic code for \"$bad\""; cat /tmp/ci_front_end.$$; rm -f /tmp/ci_front_end.$$; exit 1; }
  head -n 1 /tmp/ci_front_end.$$
done
rm -f /tmp/ci_front_end.$$

echo "== one evaluator: no reference-interpreter call or streamability fallback in lib/ or bin/ =="
# Every plan is lowered and run by Exec. The reference interpreter
# (Eval.eval_legacy) is a test/bench oracle only, and Physplan.lower
# never raises Not_streamable; each name may appear only where it is
# defined.
{ grep -rn 'eval_legacy' lib bin | grep -vE '^lib/core/eval\.mli?:' || true
  grep -rn 'Not_streamable' lib bin | grep -vE '^lib/core/physplan\.mli?:' || true
} > /tmp/ci_one_evaluator.$$
if [ -s /tmp/ci_one_evaluator.$$ ]; then
  echo "eval_legacy / Not_streamable used outside their definitions:"
  cat /tmp/ci_one_evaluator.$$; rm -f /tmp/ci_one_evaluator.$$; exit 1
fi
rm -f /tmp/ci_one_evaluator.$$

echo "== ci: all green =="
