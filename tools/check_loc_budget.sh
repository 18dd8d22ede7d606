#!/usr/bin/env sh
# Line budget: fails when the library sources or the tool sources outgrow
# the budgets written below.  Growth is then a deliberate choice: a change
# that adds lines raises its budget in the same commit, and a change that
# deletes code lowers it, so the next one cannot spend the savings
# silently.
#
#   src     every src/**/*.hpp and src/**/*.cpp
#   tools   every file under tools/ except its CMakeLists.txt
#
# Usage: tools/check_loc_budget.sh
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"

max_src_lines=17400
max_tools_lines=1533

count() {
  find "$@" -print0 | xargs -0 cat | wc -l | tr -d ' '
}

src=$(count "$repo/src" -type f \( -name '*.hpp' -o -name '*.cpp' \))
tools=$(count "$repo/tools" -type f ! -name CMakeLists.txt)

fail=0
echo "check_loc_budget: src $src lines (budget $max_src_lines)," \
     "tools $tools lines (budget $max_tools_lines)"
if [ "$src" -gt "$max_src_lines" ]; then
  echo "FAIL: src has $src lines, budget is $max_src_lines" >&2
  fail=1
fi
if [ "$tools" -gt "$max_tools_lines" ]; then
  echo "FAIL: tools has $tools lines, budget is $max_tools_lines" >&2
  fail=1
fi

[ "$fail" -eq 0 ] && echo "check_loc_budget: OK"
exit "$fail"
