"""Experiment registry: ids → runners, for the CLI and the docs.

One entry per experiment of DESIGN.md §4, each knowing how to run
itself and how to print its result tables.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.core import claims as C
from repro.core import experiments as E
from repro.core.report import format_table
from repro.rsn import experiment as R
from repro.wids import experiment as W

__all__ = ["EXPERIMENTS", "ExperimentSpec", "SeededExperiment",
           "get_experiment", "render_result", "spec_accepts_seed"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment."""

    exp_id: str
    title: str
    paper_anchor: str
    runner: Callable[..., dict]
    #: The paper's shapes as pass/fail checks on ``runner``'s result.
    claims: Callable[[dict], list[C.Claim]]


EXPERIMENTS: list[ExperimentSpec] = [
    ExperimentSpec("FIG1", "Rogue-AP configuration captures clients",
                   "Fig. 1, §4.1", E.fig1_mitm_configuration,
                   C.fig1),
    ExperimentSpec("FIG2", "Software-download MITM detail",
                   "Fig. 2, §4.1–4.2", E.fig2_download_mitm,
                   C.fig2),
    ExperimentSpec("FIG3", "VPN proxy through the compromised WLAN",
                   "Fig. 3, §5", E.fig3_vpn_proxy,
                   C.fig3),
    ExperimentSpec("E-WEP", "WEP provides no protection here",
                   "§2.1", E.exp_wep_no_protection,
                   C.wep_no_protection),
    ExperimentSpec("E-MAC", "MAC filtering vs sniff-and-spoof",
                   "§2.1", E.exp_mac_filtering,
                   C.mac_filtering),
    ExperimentSpec("E-FMS", "Airsnort key-recovery economics",
                   "§4, refs [3][11]", E.exp_airsnort_curve,
                   C.airsnort_curve),
    ExperimentSpec("E-DEAUTH", "Deauth forcing onto the rogue",
                   "§4", E.exp_deauth_capture,
                   C.deauth_capture),
    ExperimentSpec("E-NETSED", "netsed's packet-boundary limitation",
                   "§4.2", E.exp_netsed_boundaries,
                   C.netsed_boundaries),
    ExperimentSpec("E-WIRED", "Wired vs wireless prerequisites",
                   "§1.1–1.2, §3", E.exp_wired_vs_wireless,
                   C.wired_vs_wireless),
    ExperimentSpec("E-VPNOH", "UDP over the TCP tunnel (§5.3 drawback)",
                   "§5.3", E.exp_vpn_overhead,
                   C.vpn_overhead),
    ExperimentSpec("E-DETECT", "Sequence-control rogue detection",
                   "§2.3, ref [15]", E.exp_rogue_detection,
                   C.rogue_detection),
    ExperimentSpec("E-PROM", "Network promiscuity across domains",
                   "§3.2", E.exp_network_promiscuity,
                   C.network_promiscuity),
    ExperimentSpec("E-CNN", "The trusted-website scenario",
                   "§5.1", E.exp_trusted_website,
                   C.trusted_website),
    ExperimentSpec("E-8021X", "802.1X / WPA network-auth gap",
                   "§2.2, ref [9]", E.exp_dot1x_wpa_gap,
                   C.dot1x_wpa_gap),
    # Extensions beyond the paper's own experiments (§6 future work, built):
    ExperimentSpec("X-PATH", "Victim-side first-hop rogue detection",
                   "extension (§6)", E.exp_first_hop_detection,
                   C.first_hop_detection),
    ExperimentSpec("X-CONTAIN", "Active rogue containment",
                   "extension (§6)", E.exp_containment,
                   C.containment),
    ExperimentSpec("E-WIDS", "Streaming WIDS detector evaluation",
                   "§2.3 + WIDS literature", W.exp_wids_eval,
                   C.wids_eval),
    # Modern Wi-Fi scenario pack: the paper's rogue problem under RSN.
    ExperimentSpec("E-DOWNGRADE", "WPA3-transition downgrade coercion",
                   "§4 modernized (WPA3/RSN)", R.exp_downgrade,
                   C.downgrade),
    ExperimentSpec("E-CSA", "Channel-switch herding onto an evil twin",
                   "§4 modernized (802.11 CSA)", R.exp_csa_lure,
                   C.csa_lure),
    ExperimentSpec("E-PMF", "Deauth flood vs management-frame protection",
                   "§4 modernized (802.11w)", R.exp_pmf_flood,
                   C.pmf_flood),
]


def get_experiment(exp_id: str) -> ExperimentSpec:
    for spec in EXPERIMENTS:
        if spec.exp_id.lower() == exp_id.lower():
            return spec
    known = ", ".join(s.exp_id for s in EXPERIMENTS)
    raise KeyError(f"unknown experiment {exp_id!r}; known: {known}")


def spec_accepts_seed(spec: ExperimentSpec) -> bool:
    """True when the experiment's runner takes a ``seed`` parameter.

    Runners that instead take ``trials=...`` (they loop seeds
    internally) still sweep, but every seed reproduces the same result.
    """
    return "seed" in inspect.signature(spec.runner).parameters


class SeededExperiment:
    """Picklable ``trial(seed)`` adapter over a registered experiment.

    ``python -m repro sweep`` hands this to :func:`repro.fleet.run_campaign`;
    being a module-level class holding only the experiment id, it crosses
    process boundaries under both ``fork`` and ``spawn`` start methods.
    """

    def __init__(self, exp_id: str) -> None:
        self.exp_id = get_experiment(exp_id).exp_id  # validate + normalize

    def __call__(self, seed: int) -> dict:
        spec = get_experiment(self.exp_id)
        if spec_accepts_seed(spec):
            return spec.runner(seed=seed)
        return spec.runner()


def render_result(result: dict, title: str = "") -> str:
    """Render an experiment runner's dict as text tables.

    A list of row dicts becomes a table, a non-empty dict its own blocks
    (recursively, titled by the dotted key path), and any other value a
    ``key = value`` line; consecutive such lines share one block.
    """
    blocks: list[str] = []
    lines: list[str] = []
    for key, value in result.items():
        name = f"{title}.{key}" if title else str(key)
        if isinstance(value, dict) and value:
            block = render_result(value, name)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            headers: list[str] = []
            for row in value:  # union of keys, first-seen order
                for h in row:
                    if h not in headers:
                        headers.append(h)
            block = format_table(
                headers, [[row.get(h, "") for h in headers] for row in value],
                title=name)
        else:
            lines.append(f"{name} = {value}")
            continue
        if lines:
            blocks.append("\n".join(lines))
            lines = []
        blocks.append(block)
    if lines:
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
