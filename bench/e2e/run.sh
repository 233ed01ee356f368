#!/usr/bin/env bash
# Builds and runs fargo_e2e: run.sh [--seed S] [--traced] [--quick] [workload...]
# See run.py for every option and the files it writes.
exec python3 "$(dirname "$0")/run.py" "$@"
