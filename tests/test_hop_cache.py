"""The per-hop values come from one bounded cache of size pairs: past its
bound it evicts, and a report of a chain whose pairs were evicted is the
report it was before."""

from relaydof import analysis
from relaydof.analysis import analyze, report_to_obj
from relaydof.model import INFINITY

from support import chain


def test_the_hop_cache_is_bounded_and_evicts_without_changing_a_report():
    maxsize = analysis._hop_values.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    # ascending runs of consecutive sizes: every hop is a pair no other hop has
    chains = [chain(range(k * 50 + 1, k * 50 + 51)) for k in range(maxsize // 49 + 20)]
    first = report_to_obj(analyze(chains[0]))
    for t in chains[1:]:
        analyze(t)
    info = analysis._hop_values.cache_info()
    assert 49 * len(chains) > maxsize and info.currsize <= maxsize
    # a fresh topology, so no kept sums hide the hop values made anew
    again = chain(range(1, 51))
    misses = info.misses
    assert report_to_obj(analyze(again)) == first
    assert analysis._hop_values.cache_info().misses - misses == 49


def test_a_pair_and_its_reverse_share_their_values():
    for m, n in [(3, 5), (7, INFINITY), (INFINITY, INFINITY)]:
        forward, backward = analysis._hop_values(m, n), analysis._hop_values(n, m)
        assert forward is backward
        assert forward == (analysis.hop_achievable_dof(m, n), analysis.hop_cutset_dof(n, m))
