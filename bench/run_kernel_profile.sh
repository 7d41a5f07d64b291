#!/bin/bash
# Profile the DES kernel on the three-tier case study with both event
# queue backends (binary heap = before, calendar = after) plus the
# shared-timer-wheel discipline, and run the event-kernel
# microbenchmark; leave everything in BENCH_kernel.json at the repo
# root:
#   <profile fields>            kernel profile of the calendar run
#   events_per_host_sec_before  three-tier replay rate, binary heap
#   events_per_host_sec_after   three-tier replay rate, calendar
#   wheel_replay                coarse-wheel three-tier run: governor
#                               events before/after, reduction factor,
#                               profile.wheel.* counters
#   microbench                  hold/churn/replay/warehouse numbers
#                               (with calendar-vs-heap speedups) from
#                               bench_event_kernel, including the
#                               100k-server warehouse point
#   pdes                        pod-partitioned parallel kernel scaling
#                               (workers x events/s, window count,
#                               blocked fraction) with host_cpus
#                               recorded so the speedups can be read
#                               against the machine that produced them
# Usage: bench/run_kernel_profile.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="BENCH_kernel.json"

if [ ! -d "$BUILD_DIR" ]; then
    cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j --target three_tier bench_event_kernel

"$BUILD_DIR"/examples/three_tier --profile=profile_heap.json.tmp \
    --queue=heap
"$BUILD_DIR"/examples/three_tier --profile=profile_cal.json.tmp \
    --queue=calendar
# Same fleet with the governor timers batched on the timer wheel at a
# coarse 1 ms bucket: the per-core demotion and per-port LPI events
# collapse into shared boundary ticks.
"$BUILD_DIR"/examples/three_tier --profile=profile_wheel.json.tmp \
    --queue=calendar --wheel-granularity-us=1000
# The microbench exits nonzero if the two backends ever pop in a
# different order, the replay stats differ by a single bit, or the
# unit-granularity wheel diverges from exact timers. Includes the
# 100k-server warehouse point.
"$BUILD_DIR"/bench/bench_event_kernel --json=kernel_micro.json.tmp

python3 - "$OUT" <<'PYEOF'
import json, sys
heap = json.load(open('profile_heap.json.tmp'))
cal = json.load(open('profile_cal.json.tmp'))
wheel = json.load(open('profile_wheel.json.tmp'))
micro = json.load(open('kernel_micro.json.tmp'))
out = dict(cal)
out['events_per_host_sec_before'] = heap['events_per_sec']
out['events_per_host_sec_after'] = cal['events_per_sec']

GOVERNOR = ('core.demotion', 'port.lpi')
before = sum(cal['events_by_type'].get(k, {}).get('count', 0)
             for k in GOVERNOR)
ticks = wheel['events_by_type'].get('wheel.tick', {}).get('count', 0)
out['wheel_replay'] = {
    'granularity_us': 1000,
    'events_per_sec': wheel['events_per_sec'],
    'events_total': wheel['events_total'],
    'governor_events_before': before,
    'wheel_tick_events': ticks,
    'governor_event_reduction': (before / ticks) if ticks else None,
    'timer_wheel': wheel.get('timer_wheel'),
}
out['microbench'] = micro
# Promote the parallel-kernel scaling run to a top-level section:
# it is the headline number of the PDES work, not a queue-backend
# microbenchmark detail.
out['pdes'] = micro.pop('pdes')
with open(sys.argv[1], 'w') as f:
    json.dump(out, f, indent=2)
    f.write('\n')
print('three-tier events/s host: heap %.0f -> calendar %.0f' %
      (heap['events_per_sec'], cal['events_per_sec']))
print('churn microbench speedup: %.2fx' % micro['churn']['speedup'])
print('governor events: %d -> %d wheel ticks (%.1fx reduction)' %
      (before, ticks, before / ticks if ticks else float('nan')))
wh = micro['warehouse']
print('warehouse %dx4 cores: %.2fs events-mode -> %.2fs wheel' %
      (wh['servers'], wh['events_mode_wall_seconds'],
       wh['wheel_wall_seconds']))
p = out['pdes']
print('pdes (%d pods, host_cpus=%d): sequential %.0f ev/s; ' %
      (p['pods'], p['host_cpus'], p['sequential_events_per_sec']) +
      ', '.join('%dw %.2fx (blocked %.0f%%)' %
                (w['workers'], w['speedup'],
                 100 * w['blocked_fraction'])
                for w in p['workers']))
PYEOF
rm -f profile_heap.json.tmp profile_cal.json.tmp \
    profile_wheel.json.tmp kernel_micro.json.tmp
echo "kernel profile written to $OUT"
