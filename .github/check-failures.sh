#!/usr/bin/env bash
# Fail unless the failed tests in a `pytest -rf` log are exactly the six
# acceptance checks that fail by design (see README, "Tests and acceptance
# suite").  Usage: bash .github/check-failures.sh pytest.log
set -euo pipefail
log=$1
expected=$(sort <<'LIST'
tests/test_acceptance.py::test_acceptance_05_asymptotic_approach
tests/test_acceptance.py::test_acceptance_07_threshold_trichotomy[beta0=1.5]
tests/test_acceptance.py::test_acceptance_07_threshold_trichotomy[beta0=2.5]
tests/test_acceptance.py::test_acceptance_07_threshold_trichotomy[beta0=3.0]
tests/test_acceptance.py::test_acceptance_07_threshold_trichotomy[beta0=3.5]
tests/test_acceptance.py::test_acceptance_07_threshold_trichotomy[beta0=4.5]
LIST
)
summary=$(tail -n 1 "$log")
if [[ $summary != *" passed"* || $summary == *error* ]]; then
    echo "pytest did not finish cleanly: $summary"
    exit 1
fi
actual=$(grep -E '^FAILED ' "$log" | sed -e 's/^FAILED //' -e 's/ - .*//' | sort || true)
if [[ $actual != "$expected" ]]; then
    echo "failed tests differ from the by-design acceptance failures:"
    diff <(echo "$expected") <(echo "$actual") || true
    exit 1
fi
echo "failed tests are exactly the six by-design acceptance failures"
