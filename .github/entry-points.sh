#!/usr/bin/env bash
# The installed entry point's goldens: every subcommand on small inputs, exit
# codes at the input boundary, and pinned values of the JSON results.  Run it
# from the repository root after `pip install -e .`; it writes its files into
# the working directory.  The pinned bits were recorded on OpenBLAS's SkylakeX
# kernel and hold under Haswell and Nehalem too (select one with
# OPENBLAS_CORETYPE); under Sandybridge and Prescott two of them still differ
# in the last digit (ROADMAP item 15).
set -eu
signsum selftest
signsum enumerate --construct exponential:9 --r 1
signsum enumerate --construct exponential:11 --r 1 --out e11.json
grep -q '"band_count": 32' e11.json
status=0
signsum enumerate --construct exponential:13 --r 1 || status=$?
test "$status" -eq 3
signsum enumerate --construct exponential:15 --r 1 --precision interval:256
signsum construct random:2:6 --seed 0 --out r26.json
status=0
signsum enumerate --config r26.json --r 0.28234820914785475 --precision interval:53 --tolerance 0 || status=$?
test "$status" -eq 3
signsum construct exponential:15 --precision ext:256 --out e15.json
signsum enumerate --config e15.json --r 1 --precision ext:256 --out e15-census.json
grep -q '"hits": 256' e15-census.json
signsum decay --precision ext:128 --n-list 11,13 --format csv
status=0
signsum decay --families orthomult --n-list 2,5 --d 0 || status=$?
test "$status" -eq 2
status=0
signsum enumerate --construct exponential:9 --r 1 --precision ext:1099 || status=$?
test "$status" -eq 2
status=0
signsum enumerate --construct exponential:5 --r 1 --precision ext:128:junk || status=$?
test "$status" -eq 2
status=0
signsum enumerate --construct exponential:5 --r inf || status=$?
test "$status" -eq 2
printf '{"dim": 2, "vectors": [[1.05, 0], [0, 1.05]], "mode": "beck", "norm_tolerance": 0.1}' > b2.json
signsum balance --config b2.json --algo greedy
signsum balance --config b2.json --algo eliminate
signsum balance --config b2.json --algo auto
printf '{"dim": 3, "vectors": [[1.05, 0, 0], [0.525, 0.9093266739736605, 0], [0, 0, 1.05], [0, 1.05, 0]], "mode": "beck", "norm_tolerance": 0.1}' > b3.json
signsum balance --config b3.json --algo auto --out b3-balance.json
grep -q '"guarantee": "1.81865334794732' b3-balance.json
printf '{"dim": 3, "vectors": [[1, 0, 0], [0.3, 0.9539392014169457, 0], [0, 0, 1], [0, 0, 1]]}' > split.json
signsum balance --config split.json --algo auto --zeta 1e-8 --out golden-split.json
grep -q '"guarantee": "1.732028471739222",' golden-split.json
grep -q '"achieved_norm": "1.1832159566199232",' golden-split.json
grep -q '"case_taken": "oblique"' golden-split.json
printf '{"dim": 1, "vectors": [[1], [-1]]}' > one.json
signsum balance --config one.json --zeta 1e-10 --out golden-one.json 2> golden-one.err
grep -q '"guarantee": "0.07952707287670507",' golden-one.json
grep -q 'certificate cluster' golden-one.err
printf '{"dim": 2, "vectors": [[1e999, 0], [0, 1]]}' > big.json
status=0
signsum enumerate --config big.json --r 1 || status=$?
test "$status" -eq 2
signsum search --d 3 --n 4 --restarts 2 --steps 200 --seed 1 --out s.json
grep -q '"best_value": "1.32514396854819",' s.json
signsum search --d 3 --n 11 --restarts 1 --steps 300 --seed 1 --out s11.json
grep -q '"best_value": "0.8659450082417959",' s11.json
# No golden pins a search at n = 13 (--restarts 1 --steps 300 --seed 2): its
# best_value reads 0.4443468854648242 on SkylakeX and ...243 under Haswell
# and Nehalem, whose BLAS kernels round the climb's rows differently (item 15).
status=0
signsum search --d 3 --n 30 --restarts 1 --steps 1 || status=$?
test "$status" -eq 2
# The table budget counts d: one restart's sums alone would take 16 GiB.
status=0
signsum search --d 4096 --n 20 --restarts 1 --steps 1 || status=$?
test "$status" -eq 2
# The sweep checks its largest d and n before its first search.
status=0
signsum sweep --dmax 4096 --nmax 20 || status=$?
test "$status" -eq 2
status=0
signsum construct random:3:5:junk || status=$?
test "$status" -eq 2
python -c "import signsum, sys; assert 'mpmath' not in sys.modules"
signsum falsify --construct random:3:10 --r 3 --budget 2
signsum enumerate --construct random:3:12 --seed 5 --r 1.5 --out golden-census.json
grep -q '"hits": 396,' golden-census.json
grep -q '"min_norm": "0.1342666618912817",' golden-census.json
signsum balance --construct random:3:30 --seed 2 --algo eliminate --lambda zeros --out golden-balance.json
grep -q '"achieved_norm": "0.9044856995582444",' golden-balance.json
tr -d ' \n' < golden-balance.json | grep -q '"signs":\[1,1,1,-1,-1,-1,-1,1,-1,1,1,-1,-1,1,-1,-1,-1,1,1,1,1,1,1,-1,1,-1,1,1,-1,-1\]'
signsum falsify --construct random:3:10 --seed 3 --r 3 --budget 4 --out f.json
grep -q '"best_value": "0.4273399001828153",' f.json
grep -q '"best_start": 2' f.json
signsum falsify --construct random:3:14 --seed 7 --r 3 --budget 8 --out f14.json
grep -q '"best_value": "0.7769898726550584",' f14.json
grep -q '"best_start": 4' f14.json
signsum enumerate --construct orthomult:3:5,3,3 --precision ext:256 --r 1.75 --out o.json
grep -q '"hits": 720,' o.json
signsum balance --construct random:3:10 --seed 4 --algo auto --out golden-parity.json
grep -q '"achieved_norm": "0.2892375052387662",' golden-parity.json
grep -q '"guarantee": "1.7320508075688772",' golden-parity.json
grep -q '"case_taken": "oblique"' golden-parity.json
signsum balance --construct random:3:14 --seed 2 --algo auto --out golden-above-cap.json
grep -q '"achieved_norm": "0.19786326381482028",' golden-above-cap.json
grep -q '"guarantee": "1.7320508075688772",' golden-above-cap.json
grep -q '"case_taken": "oblique"' golden-above-cap.json
status=0
signsum falsify --construct random:3:24 --r 3 --budget 1 || status=$?
test "$status" -eq 2
