#!/usr/bin/env python3
"""Build the committed fixture corpora (fixtures/ and tests/data/mini/).

The files follow the endpoint's CSV contract and the cache file
layout, so tests can either prime a cache directory with them or serve them
from the mock HTTP server. Evaluated key values (energies, intensities,
levels, half-lives, chain structure, branchings) are embedded verbatim;
remaining rows are deterministic synthetic filler generated from per-nuclide
level ladders so per-series line counts land on realistic magnitudes.

Regenerate with:  python3 tools/generate_fixtures.py
"""

from __future__ import annotations

import csv
import json
import random
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

YEAR_S = 365.2422 * 86400.0
DAY_S = 86400.0
HOUR_S = 3600.0
MIN_S = 60.0

DR_COLUMNS = (
    "energy", "unc_en", "intensity", "unc_i", "p_symbol", "p_a", "p_energy",
    "unc_pe", "half_life_sec", "unc_hls", "decay", "decay_%", "unc_d",
    "d_symbol", "d_a", "daughter_level_energy", "start_level_energy",
    "end_level_energy",
)
LV_COLUMNS = (
    "symbol", "a", "energy", "unc_e", "jp", "half_life_sec", "unc_hls",
    "decay_1", "decay_1_%", "decay_2", "decay_2_%", "decay_3", "decay_3_%",
)
TR_COLUMNS = (
    "symbol", "a", "start_level_energy", "unc_sl", "end_level_energy",
    "unc_el", "energy", "unc_en", "intensity", "unc_i",
)

MODE_TO_KIND = {"A": "a", "B-": "bm", "EC+B+": "bp"}

# Gamma energies asserted by tests; synthetic rows keep clear of them.
RESERVED_GAMMAS = (
    1460.82, 186.211, 185.713, 140.511, 1001.03, 2614.511, 143.765,
    163.357, 205.311, 63.29, 92.38, 92.8, 583.187, 218.12, 440.45,
)
RESERVE_HALO = 1.6  # keV

GAP = 3.0           # minimum level spacing within one nuclide, keV
GBOUNDS = (0.0, 2000.0)     # gamma library acceptance window
ABOUNDS = (0.0, 10000.0)    # alpha library acceptance window
IFLOOR = 0.001              # intensity floor used by the demonstrations

JPI_POOL = ("1/2+", "1/2-", "3/2+", "3/2-", "5/2+", "5/2-", "2+", "2-",
            "(7/2+)", "(9/2-)", "1-", "0+", "4+", "(3+)")


def feeds_auto(first, n, top, seed):
    """Extend a pinned feed list with synthetic fed levels up to n entries."""
    rng = random.Random(f"feeds:{seed}")
    feeds = list(first)
    taken = [kev for kev, _ in feeds]
    guard = 0
    while len(feeds) < n:
        guard += 1
        if guard > 20000:
            raise RuntimeError(f"cannot place feeds for {seed}")
        kev = round(rng.uniform(12.0, top), 3)
        if any(abs(kev - t) < GAP for t in taken):
            continue
        pct = round(10 ** rng.uniform(-2.6, 0.2), 5)
        feeds.append((kev, pct))
        taken.append(kev)
    return feeds


def mode(code, pct, daughter, feeds, *, quota=0, pinned=None, alpha0=None,
         no_auto=False, blank_intensity=False, extras_alpha=None):
    return {
        "mode": code, "pct": pct, "daughter": daughter, "feeds": feeds,
        "quota": quota, "pinned": pinned or [], "alpha0": alpha0,
        "no_auto": no_auto, "blank_intensity": blank_intensity,
        "extras_alpha": extras_alpha or [],
    }


def dk(level, hl, modes):
    return {"level": level, "hl": hl, "modes": modes}


def lvl(kev, jpi=None, hl=None, modes=None, unc=0.1):
    return {"kev": kev, "jpi": jpi, "hl": hl, "modes": modes or [], "unc": unc}


NUC: dict[str, dict] = {}

# ---------- thorium series (4n): 232Th .. 208Pb ----------
NUC["232th"] = dict(
    hl=(1.40e10 * YEAR_S, 0.01e10 * YEAR_S), jpi="0+",
    decays=[dk(0.0, None, [
        mode("A", 100.0, "228ra",
             feeds=[(0.0, 78.2), (63.823, 21.7), (204.7, 0.069)],
             alpha0=4012.3, quota=8),
    ])],
)
NUC["228ra"] = dict(
    hl=(5.75 * YEAR_S, 0.03 * YEAR_S), jpi="0+",
    own_levels=[lvl(63.823, "(2+)"), lvl(204.7, "(4+)")],
    ladder=dict(top=198.0, count=9),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "228ac",
             feeds=[(33.07, 30.0), (20.19, 40.0), (6.67, 20.0), (0.0, 10.0)],
             quota=6),
    ])],
)
NUC["228ac"] = dict(
    hl=(6.15 * HOUR_S, 0.02 * HOUR_S), jpi="3+",
    own_levels=[lvl(6.67, "(1+)"), lvl(20.19, "(1-)"), lvl(33.07, "(2+)")],
    ladder=dict(top=31.0, count=3),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "228th",
             feeds=feeds_auto(
                 [(1645.9, 9.0), (1153.48, 6.0), (1022.53, 8.0),
                  (968.97, 30.0), (396.08, 13.0), (328.0, 6.0),
                  (186.823, 4.0), (57.778, 8.0), (0.0, 7.0)],
                 14, 1600.0, "228ac"),
             quota=170,
             pinned=[
                 (911.204, 25.8, 968.97, 57.778),
                 (968.971, 15.8, 968.97, 0.0),
                 (338.32, 11.27, 396.08, 57.778),
                 (964.766, 4.99, 1022.53, 57.778),
                 (463.004, 4.4, 1022.53, 559.53),
                 (794.947, 4.25, 1153.48, 358.53),
                 (209.253, 3.89, 396.08, 186.823),
                 (270.245, 3.46, 328.0, 57.778),
                 (1588.2, 3.22, 1645.9, 57.778),
                 (328.0, 2.95, 328.0, 0.0),
             ]),
    ])],
)
NUC["228th"] = dict(
    hl=(1.9116 * YEAR_S, 0.0016 * YEAR_S), jpi="0+",
    own_levels=[lvl(57.778, "2+"), lvl(186.823, "4+"), lvl(328.0, "1-"),
                lvl(358.53), lvl(396.08, "3-"), lvl(559.53), lvl(968.97, "2+"),
                lvl(1022.53), lvl(1153.48), lvl(1645.9)],
    ladder=dict(top=1560.0, count=64),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "224ra",
             feeds=feeds_auto([(0.0, 72.2), (84.373, 26.0)], 10, 560.0, "228th"),
             alpha0=5423.15, quota=24),
    ])],
)
NUC["224ra"] = dict(
    hl=(3.66 * DAY_S, 0.04 * DAY_S), jpi="0+",
    own_levels=[lvl(84.373, "2+")],
    ladder=dict(top=540.0, count=12),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "220rn",
             feeds=feeds_auto([(0.0, 94.92), (240.986, 5.06)], 9, 520.0, "224ra"),
             alpha0=5685.37, quota=10),
    ])],
)
NUC["220rn"] = dict(
    hl=(55.6, 0.1), jpi="0+",
    own_levels=[lvl(240.986, "2+")],
    ladder=dict(top=500.0, count=8),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "216po",
             feeds=[(0.0, 99.886), (549.76, 0.114), (120.3, 0.002)],
             alpha0=6288.08, quota=2),
    ])],
)
NUC["216po"] = dict(
    hl=(0.145, 0.002), jpi="0+",
    own_levels=[lvl(549.76, "2+"), lvl(120.3)],
    ladder=dict(top=520.0, count=3),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "212pb",
             feeds=[(0.0, 99.9981), (804.9, 0.0019)],
             alpha0=6778.3, quota=2),
    ])],
)
NUC["212pb"] = dict(
    hl=(10.64 * HOUR_S, 0.01 * HOUR_S), jpi="0+",
    own_levels=[lvl(804.9, "2+")],
    ladder=dict(top=780.0, count=6),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "212bi",
             feeds=[(415.27, 5.0), (238.632, 82.0), (0.0, 13.0)],
             quota=54,
             pinned=[
                 (238.632, 43.6, 238.632, 0.0),
                 (300.087, 3.3, 415.27, 115.183),
                 (115.183, 0.624, 115.183, 0.0),
             ]),
    ])],
)
NUC["212bi"] = dict(
    hl=(60.55 * MIN_S, 0.06 * MIN_S), jpi="1(-)",
    own_levels=[lvl(115.183, "(2)-"), lvl(238.632, "(1)-"), lvl(415.27, "(2)-")],
    ladder=dict(top=400.0, count=22),
    decays=[dk(0.0, None, [
        mode("A", 35.94, "208tl",
             feeds=feeds_auto([(0.0, 9.75), (39.857, 25.13)], 19, 450.0,
                              "212bi-a"),
             alpha0=6089.88, quota=20),
        mode("B-", 64.06, "212po",
             feeds=[(1800.9, 1.0), (1512.7, 2.0), (727.33, 9.0), (0.0, 52.0)],
             quota=60,
             pinned=[
                 (727.33, 6.67, 727.33, 0.0),
                 (1620.5, 1.47, 1620.5, 0.0),
                 (785.37, 1.102, 1512.7, 727.33),
             ]),
    ])],
)
NUC["212po"] = dict(
    hl=(2.94e-7, 0.01e-7), jpi="0+",
    own_levels=[lvl(727.33, "2+"), lvl(1512.7), lvl(1620.5), lvl(1800.9)],
    ladder=dict(top=1440.0, count=26),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "208pb", feeds=[(0.0, 100.0)],
             alpha0=8785.17, quota=0,
             extras_alpha=[(9495.0, 0.0035, 0.0), (10422.3, 0.002, 0.0)]),
    ])],
)
NUC["208tl"] = dict(
    hl=(3.053 * MIN_S, 0.004 * MIN_S), jpi="5+",
    own_levels=[lvl(39.857, "(5+)")],
    ladder=dict(top=460.0, count=18),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "208pb",
             feeds=[(3708.44, 23.0), (3475.08, 22.0), (3197.71, 49.0),
                    (2614.522, 1.0)],
             quota=164,
             pinned=[
                 (2614.511, 99.754, 2614.522, 0.0),
                 (583.187, 85.0, 3197.71, 2614.522),
                 (860.557, 12.5, 3475.08, 2614.522),
                 (510.77, 22.6, 3708.44, 3197.71),
                 (277.37, 6.6, 3475.08, 3197.71),
                 (763.13, 1.79, 3961.16, 3197.71),
                 (233.36, 0.31, 3708.44, 3475.08),
             ]),
    ])],
)
NUC["208pb"] = dict(
    hl="stable", jpi="0+",
    own_levels=[lvl(2614.522, "3-"), lvl(3197.71, "5-"), lvl(3475.08, "4-"),
                lvl(3708.44, "5-"), lvl(3961.16, "(4,5)-")],
    ladder=dict(top=3630.0, count=92),
)

# ---------- uranium series (4n+2): 238U .. 206Pb ----------
NUC["238u"] = dict(
    hl=(4.468e9 * YEAR_S, 0.003e9 * YEAR_S), jpi="0+",
    decays=[dk(0.0, None, [
        mode("A", 100.0, "234th",
             feeds=[(0.0, 79.0), (49.55, 20.9), (162.0, 0.078)],
             alpha0=4198.0, quota=4),
    ])],
)
NUC["234th"] = dict(
    hl=(24.10 * DAY_S, 0.03 * DAY_S), jpi="0+",
    own_levels=[lvl(49.55, "2+"), lvl(162.0, "4+")],
    ladder=dict(top=150.0, count=3),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "234pa",
             feeds=[(73.92, 72.0), (166.3, 14.0), (187.46, 7.6),
                    (94.66, 4.9), (0.0, 1.5)],
             quota=16,
             pinned=[
                 (63.29, 3.665, 157.95, 94.66),
                 (92.38, 2.13, 166.3, 73.92),
                 (92.8, 2.1, 187.46, 94.66),
             ]),
    ])],
)
NUC["234pa"] = dict(
    hl=(6.70 * HOUR_S, 0.05 * HOUR_S), jpi="4+",
    own_levels=[lvl(73.92, "0-", hl=(69.54, 0.06),
                    modes=[("B-", 99.84), ("IT", 0.16)]),
                lvl(94.66), lvl(157.95), lvl(166.3), lvl(187.46)],
    ladder=dict(top=182.0, count=5),
    decays=[
        dk(73.92, (69.54, 0.06), [
            mode("B-", 99.84, "234u",
                 feeds=[(1044.52, 1.0), (809.88, 0.6), (43.4981, 0.8),
                        (0.0, 97.6)],
                 quota=20,
                 pinned=[
                     (1001.03, 0.842, 1044.52, 43.4981),
                     (766.38, 0.294, 809.88, 43.4981),
                 ]),
            mode("IT", 0.16, "234pa", feeds=[], quota=1),
        ]),
        dk(0.0, None, [
            mode("B-", 100.0, "234u",
                 feeds=feeds_auto([(1044.52, 5.0), (926.72, 8.0), (43.4981, 20.0),
                                   (0.0, 40.0)], 9, 1020.0, "234pa-g"),
                 quota=140),
        ]),
    ],
)
NUC["234u"] = dict(
    hl=(2.455e5 * YEAR_S, 0.006e5 * YEAR_S), jpi="0+",
    own_levels=[lvl(43.4981, "2+", unc=0.001), lvl(143.35, "4+"),
                lvl(809.88, "1-"), lvl(926.72), lvl(1044.52)],
    ladder=dict(top=1000.0, count=62),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "230th",
             feeds=feeds_auto([(0.0, 71.38), (53.2, 28.42)], 12, 540.0, "234u"),
             alpha0=4774.6, quota=6),
    ])],
)
NUC["230th"] = dict(
    hl=(7.54e4 * YEAR_S, 0.03e4 * YEAR_S), jpi="0+",
    own_levels=[lvl(53.2, "2+"), lvl(174.1, "4+")],
    ladder=dict(top=520.0, count=16),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "226ra",
             feeds=feeds_auto([(0.0, 76.3), (67.67, 23.4)], 20, 500.0, "230th"),
             alpha0=4687.0, quota=14),
    ])],
)
NUC["226ra"] = dict(
    hl=(1600.0 * YEAR_S, 7.0 * YEAR_S), jpi="0+",
    own_levels=[lvl(67.67, "2+")],
    ladder=dict(top=480.0, count=16),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "222rn",
             feeds=feeds_auto([(0.0, 93.84), (186.211, 6.16)], 14, 460.0, "226ra"),
             alpha0=4784.34, quota=6,
             pinned=[(186.211, 3.565, 186.211, 0.0)]),
    ])],
)
NUC["222rn"] = dict(
    hl=(3.8235 * DAY_S, 0.0003 * DAY_S), jpi="0+",
    own_levels=[lvl(186.211, "2+", unc=0.013)],
    ladder=dict(top=440.0, count=8),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "218po",
             feeds=feeds_auto([(0.0, 99.92), (511.9, 0.078)], 4, 420.0, "222rn"),
             alpha0=5489.48, quota=2),
    ])],
)
NUC["218po"] = dict(
    hl=(3.098 * MIN_S, 0.012 * MIN_S), jpi="0+",
    own_levels=[lvl(511.9, "2+")],
    ladder=dict(top=420.0, count=6),
    decays=[dk(0.0, None, [
        mode("A", 99.98, "214pb",
             feeds=feeds_auto([(0.0, 99.8)], 6, 400.0, "218po"),
             alpha0=6002.35, quota=2),
        mode("B-", 0.02, "218at", feeds=[(0.0, 0.02)], quota=0),
    ])],
)
NUC["218at"] = dict(
    hl=(1.5, 0.3), jpi="(1-)",
    decays=[dk(0.0, None, [
        mode("A", 99.9, "214bi",
             feeds=feeds_auto([(0.0, 93.6)], 5, 600.0, "218at"),
             alpha0=6693.0, quota=2),
    ])],
)
NUC["214pb"] = dict(
    hl=(26.8 * MIN_S, 0.9 * MIN_S), jpi="0+",
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "214bi",
             feeds=[(351.932, 35.8), (295.224, 19.2), (53.226, 1.2),
                    (0.0, 43.8)],
             quota=80,
             pinned=[
                 (351.932, 35.6, 351.932, 0.0),
                 (295.224, 18.41, 295.224, 0.0),
                 (241.997, 7.25, 295.224, 53.226),
                 (53.23, 1.06, 53.226, 0.0),
             ]),
    ])],
)
NUC["214bi"] = dict(
    hl=(19.9 * MIN_S, 0.4 * MIN_S), jpi="1-",
    own_levels=[lvl(53.226, "1+"), lvl(295.224, "1-"), lvl(351.932, "1-")],
    ladder=dict(top=344.0, count=40),
    xrays=[(77.1, 10.7, 0.0, "214po", "B-", 99.979),
           (79.3, 1.8, 0.0, "214po", "B-", 99.979),
           (89.8, 4.1, 0.0, "214po", "B-", 99.979)],
    decays=[dk(0.0, None, [
        mode("B-", 99.979, "214po",
             feeds=[(2447.86, 1.55), (2204.06, 4.9), (2118.52, 1.2),
                    (1847.44, 8.3), (1764.49, 15.9), (1729.6, 15.8),
                    (1543.37, 3.0), (1377.68, 7.4), (609.318, 17.8),
                    (0.0, 19.1)],
             quota=480,
             pinned=[
                 (609.32, 45.49, 609.318, 0.0),
                 (1764.49, 15.3, 1764.49, 0.0),
                 (1120.29, 14.91, 1729.6, 609.318),
                 (1238.12, 5.83, 1847.44, 609.318),
                 (768.36, 4.89, 1377.68, 609.318),
                 (934.06, 3.1, 1543.37, 609.318),
                 (1377.67, 3.99, 1377.68, 0.0),
                 (1729.6, 2.84, 1729.6, 0.0),
                 (1847.4, 2.02, 1847.44, 0.0),
                 (1155.2, 1.63, 1764.49, 609.318),
                 (1509.2, 2.13, 2118.52, 609.318),
                 (2204.06, 4.92, 2204.06, 0.0),
                 (2447.86, 1.55, 2447.86, 0.0),
             ]),
        mode("A", 0.021, "210tl",
             feeds=[(0.0, 0.011), (296.0, 0.008)],
             alpha0=5516.0, quota=2),
    ])],
)
NUC["214po"] = dict(
    hl=(164.3e-6, 2.0e-6), jpi="0+",
    own_levels=[lvl(609.318, "2+", unc=0.005), lvl(1377.68), lvl(1543.37),
                lvl(1729.6), lvl(1764.49), lvl(1847.44), lvl(2118.52),
                lvl(2204.06), lvl(2447.86)],
    ladder=dict(top=2380.0, count=205),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "210pb",
             feeds=feeds_auto([(0.0, 99.99), (799.7, 0.0104)], 6, 760.0, "214po"),
             alpha0=7686.82, quota=2,
             pinned=[(799.7, 0.0104, 799.7, 0.0)]),
    ])],
)
NUC["210tl"] = dict(
    hl=(1.30 * MIN_S, 0.03 * MIN_S), jpi="(5+)",
    own_levels=[lvl(296.0, "(4+)")],
    ladder=dict(top=290.0, count=6),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "210pb",
             feeds=feeds_auto([(0.0, 30.0)], 5, 740.0, "210tl"),
             quota=36),
    ])],
)
NUC["210pb"] = dict(
    hl=(22.20 * YEAR_S, 0.22 * YEAR_S), jpi="0+",
    own_levels=[lvl(799.7, "2+")],
    ladder=dict(top=720.0, count=22),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "210bi",
             feeds=[(46.539, 84.0), (0.0, 16.0)],
             quota=4,
             pinned=[(46.539, 4.25, 46.539, 0.0)]),
    ])],
)
NUC["210bi"] = dict(
    hl=(5.012 * DAY_S, 0.005 * DAY_S), jpi="1-",
    own_levels=[lvl(46.539, "2-", unc=0.001)],
    ladder=dict(top=44.0, count=5),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "210po", feeds=[(0.0, 100.0)], quota=0),
        mode("A", 1.32e-4, "206tl",
             feeds=[(0.0, 7.7e-5), (265.8, 5.5e-5)],
             alpha0=4656.0, quota=0),
    ])],
)
NUC["206tl"] = dict(
    hl=(4.202 * MIN_S, 0.011 * MIN_S), jpi="0-",
    own_levels=[lvl(265.8, "(1-)")],
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "206pb",
             feeds=[(0.0, 99.9), (803.06, 0.0074)],
             quota=2,
             pinned=[(803.06, 0.0074, 803.06, 0.0)]),
    ])],
)
NUC["210po"] = dict(
    hl=(138.376 * DAY_S, 0.002 * DAY_S), jpi="0+",
    decays=[dk(0.0, None, [
        mode("A", 100.0, "206pb",
             feeds=feeds_auto([(0.0, 99.999), (803.06, 0.00103)], 5, 600.0,
                              "210po"),
             alpha0=5304.33, quota=1,
             pinned=[(803.06, 0.00103, 803.06, 0.0)]),
    ])],
)
NUC["206pb"] = dict(
    hl="stable", jpi="0+",
    own_levels=[lvl(803.06, "2+"), lvl(1340.5, "3+")],
    ladder=dict(top=780.0, count=4),
)

# ---------- actinium series (4n+3): 235U .. 207Pb ----------
NUC["235u"] = dict(
    hl=(7.04e8 * YEAR_S, 0.01e8 * YEAR_S), jpi="7/2-",
    decays=[dk(0.0, None, [
        mode("A", 100.0, "231th",
             feeds=feeds_auto(
                 [(0.0, 5.0), (41.952, 3.0), (185.713, 57.0),
                  (205.311, 18.0), (387.84, 4.0)],
                 18, 540.0, "235u"),
             alpha0=4596.4, quota=60,
             pinned=[
                 (185.713, 57.2, 185.713, 0.0),
                 (143.765, 10.93, 185.713, 41.952),
                 (163.357, 5.07, 205.311, 41.952),
                 (205.311, 5.03, 205.311, 0.0),
             ]),
    ])],
)
NUC["231th"] = dict(
    hl=(25.52 * HOUR_S, 0.01 * HOUR_S), jpi="5/2+",
    own_levels=[lvl(41.952, "5/2+", unc=0.01), lvl(185.713, "3/2-", unc=0.008),
                lvl(205.311, "1/2-", unc=0.01), lvl(387.84, "5/2-")],
    ladder=dict(top=520.0, count=34),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "231pa",
             feeds=feeds_auto([(25.64, 40.0), (84.214, 12.0), (0.0, 30.0)],
                              8, 300.0, "231th"),
             quota=60,
             pinned=[
                 (25.64, 14.1, 25.64, 0.0),
                 (84.214, 6.71, 84.214, 0.0),
             ]),
    ])],
)
NUC["231pa"] = dict(
    hl=(3.276e4 * YEAR_S, 0.011e4 * YEAR_S), jpi="3/2-",
    own_levels=[lvl(25.64, "1/2-"), lvl(84.214, "3/2-")],
    ladder=dict(top=290.0, count=26),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "227ac",
             feeds=feeds_auto([(0.0, 11.0), (29.9, 20.0), (46.35, 5.0)],
                              28, 540.0, "231pa"),
             alpha0=5058.6, quota=140),
    ])],
)
NUC["227ac"] = dict(
    hl=(21.772 * YEAR_S, 0.003 * YEAR_S), jpi="3/2-",
    own_levels=[lvl(29.9, "3/2+"), lvl(46.35, "(5/2-)")],
    ladder=dict(top=530.0, count=70),
    decays=[dk(0.0, None, [
        mode("A", 1.38, "223fr",
             feeds=feeds_auto([(0.0, 0.66), (50.1, 0.45)], 5, 380.0, "227ac"),
             alpha0=4953.3, quota=4),
        mode("B-", 98.62, "227th",
             feeds=feeds_auto([(0.0, 54.0), (24.5, 35.0), (9.3, 10.0)],
                              8, 130.0, "227ac-b"),
             quota=10),
    ])],
)
NUC["227th"] = dict(
    hl=(18.697 * DAY_S, 0.007 * DAY_S), jpi="(1/2+)",
    own_levels=[lvl(9.3), lvl(24.5), lvl(37.9)],
    ladder=dict(top=126.0, count=6),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "223ra",
             feeds=feeds_auto([(0.0, 24.5), (29.85, 4.0), (61.44, 7.0)],
                              36, 580.0, "227th"),
             alpha0=6146.4, quota=200),
    ])],
)
NUC["223fr"] = dict(
    hl=(22.00 * MIN_S, 0.07 * MIN_S), jpi="3/2(-)",
    own_levels=[lvl(50.1, "(5/2)-")],
    ladder=dict(top=370.0, count=8),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "223ra",
             feeds=feeds_auto([(50.128, 33.0), (79.723, 9.0), (0.0, 40.0)],
                              9, 580.0, "223fr"),
             quota=50,
             pinned=[
                 (50.13, 34.0, 50.128, 0.0),
                 (79.65, 8.9, 79.723, 0.0),
             ]),
    ])],
)
NUC["223ra"] = dict(
    hl=(11.43 * DAY_S, 0.05 * DAY_S), jpi="3/2+",
    own_levels=[lvl(50.128, "(3/2)+"), lvl(79.723, "(5/2)+")],
    ladder=dict(top=570.0, count=92),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "219rn",
             feeds=feeds_auto(
                 [(0.0, 52.5), (269.46, 13.9), (154.21, 5.8), (338.28, 2.9),
                  (478.08, 1.0)],
                 20, 560.0, "223ra"),
             alpha0=5871.3, quota=130,
             pinned=[
                 (269.46, 14.23, 269.46, 0.0),
                 (154.21, 5.7, 154.21, 0.0),
                 (323.87, 4.06, 478.08, 154.21),
                 (144.27, 3.36, 298.48, 154.21),
                 (338.28, 2.85, 338.28, 0.0),
             ]),
    ])],
)
NUC["219rn"] = dict(
    hl=(3.96, 0.01), jpi="5/2+",
    own_levels=[lvl(154.21, "7/2+"), lvl(269.46, "5/2+"), lvl(298.48),
                lvl(338.28, "3/2+"), lvl(478.08)],
    ladder=dict(top=550.0, count=58),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "215po",
             feeds=feeds_auto([(0.0, 79.4), (271.23, 12.9), (401.81, 7.5)],
                              5, 420.0, "219rn"),
             alpha0=6819.1, quota=10,
             pinned=[
                 (271.23, 11.07, 271.23, 0.0),
                 (401.81, 6.75, 401.81, 0.0),
             ]),
    ])],
)
NUC["215po"] = dict(
    hl=(1.781e-3, 0.004e-3), jpi="9/2+",
    own_levels=[lvl(271.23, "11/2+"), lvl(401.81, "(9/2)+")],
    ladder=dict(top=390.0, count=10),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "211pb",
             feeds=[(0.0, 99.99), (438.8, 0.058)],
             alpha0=7386.1, quota=2,
             pinned=[(438.8, 0.058, 438.8, 0.0)]),
    ])],
)
NUC["211pb"] = dict(
    hl=(36.1 * MIN_S, 0.2 * MIN_S), jpi="9/2+",
    own_levels=[lvl(438.8, "(9/2)+")],
    ladder=dict(top=430.0, count=6),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "211bi",
             feeds=feeds_auto([(831.96, 3.8), (404.853, 4.0), (0.0, 91.3)],
                              6, 800.0, "211pb"),
             quota=60,
             pinned=[
                 (404.853, 3.78, 404.853, 0.0),
                 (831.96, 3.52, 831.96, 0.0),
                 (427.088, 1.76, 831.96, 404.853),
             ]),
    ])],
)
NUC["211bi"] = dict(
    hl=(2.14 * MIN_S, 0.02 * MIN_S), jpi="9/2-",
    own_levels=[lvl(404.853, "7/2-"), lvl(831.96, "(9/2-)")],
    ladder=dict(top=790.0, count=28),
    decays=[dk(0.0, None, [
        mode("A", 99.724, "207tl",
             feeds=feeds_auto([(0.0, 83.54), (351.06, 16.19)], 3, 340.0,
                              "211bi"),
             alpha0=6622.9, quota=2,
             pinned=[(351.06, 13.02, 351.06, 0.0)]),
        mode("B-", 0.276, "211po",
             feeds=[(0.0, 0.19), (687.0, 0.08)],
             quota=2),
    ])],
)
NUC["207tl"] = dict(
    hl=(4.77 * MIN_S, 0.02 * MIN_S), jpi="1/2+",
    own_levels=[lvl(351.06, "3/2+")],
    ladder=dict(top=340.0, count=4),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "207pb",
             feeds=[(0.0, 99.73), (897.698, 0.27)],
             quota=2,
             pinned=[(897.7, 0.263, 897.698, 0.0)]),
    ])],
)
NUC["211po"] = dict(
    hl=(0.516, 0.003), jpi="9/2+",
    own_levels=[lvl(687.0), lvl(328.2)],
    ladder=dict(top=660.0, count=4),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "207pb",
             feeds=[(0.0, 98.92), (569.6982, 0.557), (897.698, 0.54)],
             alpha0=7450.3, quota=4,
             pinned=[
                 (569.698, 0.536, 569.6982, 0.0),
                 (897.7, 0.563, 897.698, 0.0),
             ]),
    ])],
)
NUC["207pb"] = dict(
    hl="stable", jpi="1/2-",
    own_levels=[lvl(569.6982, "5/2-", unc=0.0017), lvl(897.698, "3/2-"),
                lvl(1633.356, "13/2+")],
    ladder=dict(top=540.0, count=4),
)

# ---------- neptunium series (4n+1): 237Np .. 205Tl ----------
NUC["237np"] = dict(
    hl=(2.144e6 * YEAR_S, 0.007e6 * YEAR_S), jpi="5/2+",
    decays=[dk(0.0, None, [
        mode("A", 100.0, "233pa",
             feeds=feeds_auto([(0.0, 2.0), (59.54, 12.0), (86.49, 48.0)],
                              20, 540.0, "237np"),
             alpha0=4788.0, quota=60),
    ])],
)
NUC["233pa"] = dict(
    hl=(26.975 * DAY_S, 0.013 * DAY_S), jpi="3/2-",
    own_levels=[lvl(59.54, "5/2+"), lvl(86.49, "7/2+")],
    ladder=dict(top=530.0, count=36),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "233u",
             feeds=feeds_auto([(311.904, 36.0), (340.48, 4.0), (0.0, 40.0)],
                              12, 760.0, "233pa"),
             quota=80,
             pinned=[
                 (311.904, 38.5, 311.904, 0.0),
                 (300.129, 6.62, 340.48, 40.35),
                 (340.476, 4.47, 340.48, 0.0),
             ]),
    ])],
)
NUC["233u"] = dict(
    hl=(1.592e5 * YEAR_S, 0.002e5 * YEAR_S), jpi="5/2+",
    own_levels=[lvl(40.35, "7/2+"), lvl(311.904, "5/2+"), lvl(340.48, "3/2+")],
    ladder=dict(top=740.0, count=42),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "229th",
             feeds=feeds_auto([(0.0, 84.3), (42.43, 13.2)], 12, 420.0, "233u"),
             alpha0=4824.2, quota=16),
    ])],
)
NUC["229th"] = dict(
    hl=(7880.0 * YEAR_S, 120.0 * YEAR_S), jpi="5/2+",
    own_levels=[lvl(42.43, "7/2+")],
    ladder=dict(top=410.0, count=14),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "225ra",
             feeds=feeds_auto([(0.0, 9.3), (42.77, 15.0), (97.14, 56.2)],
                              22, 540.0, "229th"),
             alpha0=5077.9, quota=80),
    ])],
)
NUC["225ra"] = dict(
    hl=(14.9 * DAY_S, 0.2 * DAY_S), jpi="1/2+",
    own_levels=[lvl(42.77, "3/2+"), lvl(97.14, "5/2+")],
    ladder=dict(top=530.0, count=48),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "225ac",
             feeds=feeds_auto([(0.0, 60.0), (40.09, 30.0)], 6, 430.0, "225ra"),
             quota=8,
             pinned=[(40.09, 30.0, 40.09, 0.0)]),
    ])],
)
NUC["225ac"] = dict(
    hl=(9.9203 * DAY_S, 0.0003 * DAY_S), jpi="(3/2-)",
    own_levels=[lvl(40.09, "(5/2+)")],
    ladder=dict(top=450.0, count=8),
    electrons=[(29.8, 14.0, 0.0, "221fr", "A", 100.0),
               (83.0, 4.2, 0.0, "221fr", "A", 100.0)],
    decays=[dk(0.0, None, [
        mode("A", 100.0, "221fr",
             feeds=feeds_auto(
                 [(0.0, 51.6), (99.91, 17.0), (108.4, 10.0), (150.04, 4.0),
                  (187.97, 2.0), (253.5, 1.0), (526.1, 0.3)],
                 15, 520.0, "225ac"),
             alpha0=5830.0, quota=70,
             pinned=[
                 (99.8, 1.01, 99.91, 0.0),
                 (108.4, 0.42, 108.4, 0.0),
                 (150.1, 0.62, 150.04, 0.0),
                 (187.9, 0.65, 187.97, 0.0),
                 (253.5, 0.105, 253.5, 0.0),
                 (526.1, 0.07, 526.1, 0.0),
             ]),
    ])],
)
NUC["221fr"] = dict(
    hl=(286.1, 0.9), jpi="5/2-",
    own_levels=[lvl(99.91, "5/2+"), lvl(108.4, "(7/2+)"), lvl(150.04),
                lvl(187.97), lvl(253.5), lvl(526.1)],
    ladder=dict(top=510.0, count=38),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "217at",
             feeds=feeds_auto([(0.0, 83.4), (218.155, 15.1)], 8, 420.0,
                              "221fr"),
             alpha0=6341.0, quota=36,
             pinned=[(218.12, 11.44, 218.155, 0.0)]),
    ])],
)
NUC["217at"] = dict(
    hl=(32.3e-3, 0.4e-3), jpi="9/2-",
    own_levels=[lvl(218.155, "(11/2)-")],
    ladder=dict(top=410.0, count=20),
    decays=[dk(0.0, None, [
        mode("A", 99.988, "213bi",
             feeds=feeds_auto([(0.0, 99.8), (292.8, 0.12)], 4, 440.0,
                              "217at"),
             alpha0=7066.9, quota=6),
    ])],
)
NUC["213bi"] = dict(
    hl=(45.59 * MIN_S, 0.06 * MIN_S), jpi="9/2-",
    own_levels=[lvl(292.8, "(7/2-)")],
    ladder=dict(top=430.0, count=10),
    decays=[dk(0.0, None, [
        mode("A", 2.20, "209tl",
             feeds=[(0.0, 1.94), (323.81, 0.26)],
             alpha0=5875.0, quota=10),
        mode("B-", 97.80, "213po",
             feeds=[(440.45, 26.1), (0.0, 71.7)],
             quota=38,
             pinned=[(440.45, 25.94, 440.45, 0.0)]),
    ])],
)
NUC["213po"] = dict(
    hl=(3.72e-6, 0.02e-6), jpi="9/2+",
    own_levels=[lvl(440.45, "(7/2)+")],
    ladder=dict(top=430.0, count=22),
    decays=[dk(0.0, None, [
        mode("A", 100.0, "209pb",
             feeds=[(0.0, 100.0), (778.8, 0.0008)],
             alpha0=8376.9, quota=2),
    ])],
)
NUC["209tl"] = dict(
    hl=(2.162 * MIN_S, 0.007 * MIN_S), jpi="(1/2+)",
    own_levels=[lvl(323.81, "(3/2-)")],
    ladder=dict(top=310.0, count=6),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "209pb",
             feeds=[(2149.43, 99.5), (0.0, 0.5)],
             quota=14,
             pinned=[
                 (1567.09, 99.7, 1567.09, 0.0),
                 (465.13, 96.9, 2032.22, 1567.09),
                 (117.21, 84.3, 2149.43, 2032.22),
             ]),
    ])],
)
NUC["209pb"] = dict(
    hl=(3.234 * HOUR_S, 0.007 * HOUR_S), jpi="9/2+",
    own_levels=[lvl(778.8, "11/2+"), lvl(1567.09, "(5/2)+"),
                lvl(2032.22), lvl(2149.43)],
    ladder=dict(top=2100.0, count=10),
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "209bi", feeds=[(0.0, 100.0)], quota=0),
    ])],
)
NUC["209bi"] = dict(
    hl=(2.01e19 * YEAR_S, 0.08e19 * YEAR_S), jpi="9/2-",
    decays=[dk(0.0, None, [
        mode("A", 100.0, "205tl", feeds=[(0.0, 100.0)],
             alpha0=3137.0, quota=0, blank_intensity=True),
    ])],
)
NUC["205tl"] = dict(hl="stable", jpi="1/2+")

# ---------- other demonstration nuclides ----------
NUC["40k"] = dict(
    hl=(1.248e9 * YEAR_S, 0.003e9 * YEAR_S), jpi="4-",
    decays=[dk(0.0, None, [
        mode("B-", 89.28, "40ca", feeds=[(0.0, 89.28)], quota=0),
        mode("EC+B+", 10.72, "40ar", feeds=[(0.0, 0.001)],
             quota=1,
             pinned=[(1460.82, 10.66, 1460.822, 0.0)]),
    ])],
)
NUC["40ar"] = dict(hl="stable", jpi="0+",
                   own_levels=[lvl(1460.822, "2+", unc=0.05)])
NUC["40ca"] = dict(hl="stable", jpi="0+")

NUC["99mo"] = dict(
    hl=(65.94 * HOUR_S, 0.01 * HOUR_S), jpi="1/2+",
    decays=[dk(0.0, None, [
        mode("B-", 100.0, "99tc",
             feeds=[(920.619, 16.4), (509.11, 1.0), (142.6836, 82.2)],
             quota=8, no_auto=True,
             pinned=[
                 (739.5, 12.2, 920.619, 181.094),
                 (777.921, 4.26, 920.619, 142.6836),
                 (158.837, 0.104, 920.619, 761.782),
                 (386.179, 0.09, 920.619, 534.44),
                 (621.271, 0.07, 761.782, 140.511),
                 (353.346, 0.04, 534.44, 181.094),
                 (366.43, 1.43, 509.11, 142.6836),
                 (40.583, 1.1, 181.094, 140.511),
             ]),
    ])],
)
NUC["99tc"] = dict(
    hl=(2.111e5 * YEAR_S, 0.012e5 * YEAR_S), jpi="9/2+",
    own_levels=[
        lvl(140.511, "7/2+", hl=(1.9e-10, 0.1e-10), unc=0.01),
        lvl(142.6836, "1/2-", hl=(21624.12, 3.6),
            modes=[("IT", 99.9963), ("B-", 0.0037)], unc=0.001),
        lvl(181.094, "5/2+", unc=0.01),
        lvl(509.11, "(3/2-)"), lvl(534.44), lvl(761.782), lvl(920.619),
    ],
    own_transitions=[
        (920.619, 761.782, 158.837, 0.10),
        (920.619, 534.44, 386.179, 0.09),
        (920.619, 181.094, 739.5, 12.3),
        (920.619, 142.6836, 777.921, 4.3),
        (761.782, 140.511, 621.271, 0.07),
        (534.44, 181.094, 353.346, 0.04),
        (509.11, 142.6836, 366.43, 1.44),
        (181.094, 140.511, 40.583, 1.1),
        (142.6836, 140.511, 2.1726, 0.02),
        (140.511, 0.0, 140.511, 89.0),
    ],
    electrons=[(119.467, 8.79, 142.6836, "99tc", "IT", 99.9963),
               (137.961, 1.07, 142.6836, "99tc", "IT", 99.9963)],
    decays=[
        dk(142.6836, (21624.12, 3.6), [
            mode("IT", 99.9963, "99tc", feeds=[], quota=2, no_auto=True,
                 pinned=[
                     (2.1726, 0.0022, 142.6836, 140.511),
                     (140.511, 89.06, 140.511, 0.0),
                 ]),
            mode("B-", 0.0037, "99ru", feeds=[(0.0, 0.0037)], quota=0),
        ]),
        dk(0.0, None, [
            mode("B-", 100.0, "99ru",
                 feeds=[(0.0, 99.998), (89.571, 0.00064)],
                 quota=0, no_auto=True,
                 pinned=[(89.571, 0.00064, 89.571, 0.0)]),
        ]),
    ],
)
NUC["99ru"] = dict(hl="stable", jpi="5/2+",
                   own_levels=[lvl(89.571, "3/2+")])

NUC["177lu"] = dict(
    hl=(6.6443 * DAY_S, 0.0009 * DAY_S), jpi="7/2+",
    own_levels=[
        lvl(121.62, "9/2+"),
        lvl(150.3915, "9/2-", hl=(1.3e-7, 0.1e-7), modes=[("IT", 100.0)],
            unc=0.0004),
        lvl(289.05), lvl(413.66),
        lvl(569.697, "1/2+", hl=(1.55e-4, 0.05e-4), modes=[("IT", 100.0)],
            unc=0.003),
        lvl(720.73, "(5/2-)", hl=(3.2e-8, 0.4e-8), modes=[("IT", 100.0)]),
        lvl(970.1757, "23/2-", hl=(160.44 * DAY_S, 0.06 * DAY_S),
            modes=[("IT", 21.4), ("B-", 78.6)], unc=0.0006),
    ],
    own_transitions=[
        (970.1757, 413.66, 556.52, 3.4),
        (970.1757, 720.73, 249.45, 5.9),
        (720.73, 569.697, 151.03, 2.1),
        (569.697, 289.05, 280.65, 1.9),
        (413.66, 121.62, 292.04, 2.9),
        (413.66, 150.3915, 263.27, 1.3),
        (289.05, 150.3915, 138.66, 1.2),
        (150.3915, 0.0, 150.39, 2.6),
        (121.62, 0.0, 121.62, 6.2),
    ],
    decays=[
        dk(970.1757, (160.44 * DAY_S, 0.06 * DAY_S), [
            mode("IT", 21.4, "177lu", feeds=[], quota=6, no_auto=True,
                 pinned=[
                     (556.52, 3.4, 970.1757, 413.66),
                     (249.45, 5.9, 970.1757, 720.73),
                     (292.04, 2.9, 413.66, 121.62),
                     (121.62, 6.2, 121.62, 0.0),
                     (263.27, 1.3, 413.66, 150.3915),
                     (151.03, 2.1, 720.73, 569.697),
                 ]),
            mode("B-", 78.6, "177hf",
                 feeds=[(1315.45, 18.7), (1275.41, 14.0), (1125.39, 11.0),
                        (896.91, 6.0)],
                 quota=30,
                 pinned=[
                     (418.54, 21.3, 1315.45, 896.91),
                     (378.50, 29.7, 1275.41, 896.91),
                     (228.48, 37.1, 1125.39, 896.91),
                     (896.91, 2.6, 896.91, 0.0),
                 ]),
        ]),
        dk(0.0, None, [
            mode("B-", 100.0, "177hf",
                 feeds=[(321.316, 10.6), (249.67, 0.08), (112.9498, 9.1),
                        (0.0, 79.4)],
                 quota=8,
                 pinned=[
                     (208.3665, 10.38, 321.316, 112.9498),
                     (112.9498, 6.17, 112.9498, 0.0),
                     (321.316, 0.219, 321.316, 0.0),
                     (249.67, 0.212, 249.67, 0.0),
                     (71.65, 0.154, 321.316, 249.67),
                 ]),
        ]),
    ],
)
NUC["177hf"] = dict(
    hl="stable", jpi="7/2-",
    own_levels=[lvl(112.9498, "9/2-", unc=0.0009), lvl(249.67, "11/2-"),
                lvl(321.316, "5/2-"), lvl(896.91), lvl(1125.39),
                lvl(1275.41), lvl(1315.45)],
    ladder=dict(top=310.0, count=8),
)

# ---------- mini corpus for the timing/cache harness ----------
MINI: dict[str, dict] = {
    "90sr": dict(
        hl=(28.79 * YEAR_S, 0.06 * YEAR_S), jpi="0+",
        decays=[dk(0.0, None, [
            mode("B-", 100.0, "90y", feeds=[(0.0, 100.0)], quota=0),
        ])],
    ),
    "90y": dict(
        hl=(64.053 * HOUR_S, 0.02 * HOUR_S), jpi="2-",
        own_levels=[lvl(682.04, "7+", hl=(11484.0, 36.0),
                        modes=[("IT", 100.0)])],
        decays=[dk(0.0, None, [
            mode("B-", 100.0, "90zr",
                 feeds=[(0.0, 99.9885), (2186.242, 0.0115)],
                 quota=0, no_auto=True,
                 pinned=[(2186.242, 0.0115, 2186.242, 0.0)]),
        ])],
    ),
    "90zr": dict(
        hl="stable", jpi="0+",
        own_levels=[lvl(1760.7, "0+"), lvl(2186.242, "2+")],
    ),
}


# --- generation machinery -----------------------------------------------------

def split_id(nid: str) -> tuple[str, int]:
    i = 0
    while nid[i].isdigit():
        i += 1
    return nid[i:].capitalize(), int(nid[:i])


def fnum(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class CorpusBuilder:
    def __init__(self, table: dict[str, dict]):
        self.table = table
        self.levels: dict[str, dict[float, dict]] = {}
        self.transitions: dict[str, dict[tuple[float, float], float]] = {}
        self.rows: dict[tuple[str, str], list[dict]] = defaultdict(list)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)

    # -- level schemes --

    def _add_level(self, nid: str, kev: float, snap: bool = False, **info) -> None:
        pool = self.levels.setdefault(nid, {})
        for existing in pool:
            # levels must stay outside the 1 keV matching floor of each other
            if existing != kev and abs(existing - kev) < 2.05:
                if snap:
                    return  # row energies resolve to the existing level
                raise RuntimeError(
                    f"{nid}: level {kev} too close to {existing}"
                )
        entry = pool.setdefault(kev, {"kev": kev, "jpi": None, "hl": None,
                                      "modes": [], "unc": 0.1})
        for key, value in info.items():
            if value not in (None, []):
                entry[key] = value

    def _feeding_parents(self, nid: str):
        """(parent, mode dict, decaying level) triples feeding ``nid``."""
        out = []
        for pid, spec in self.table.items():
            for dec in spec.get("decays", ()):
                for md in dec["modes"]:
                    if md["daughter"] == nid:
                        out.append((pid, md, dec["level"]))
        return out

    def build_levels(self) -> None:
        for nid, spec in self.table.items():
            self._add_level(nid, 0.0, jpi=spec.get("jpi"),
                            hl=spec.get("hl"), unc=0.0)
            for level in spec.get("own_levels", ()):
                info = {k: v for k, v in level.items() if k != "kev"}
                self._add_level(nid, level["kev"], **info)
            for dec in spec.get("decays", ()):
                if dec["level"]:
                    self._add_level(nid, dec["level"],
                                    hl=dec["hl"] or spec.get("hl"))
        # levels implied by feeds and pinned gamma endpoints
        for nid in self.table:
            for _, md, p_level in self._feeding_parents(nid):
                for kev, _pct in md["feeds"]:
                    self._add_level(nid, kev, snap=True)
                for pin in md["pinned"]:
                    self._add_level(nid, pin[2], snap=True)
                    self._add_level(nid, pin[3], snap=True)
        # synthetic ladder fill
        for nid, spec in self.table.items():
            ladder = spec.get("ladder")
            if not ladder:
                continue
            rng = random.Random(f"ladder:{nid}")
            pool = self.levels[nid]
            placed, guard = 0, 0
            while placed < ladder["count"]:
                guard += 1
                if guard > 200000:
                    raise RuntimeError(f"{nid}: cannot place ladder levels")
                kev = round(rng.uniform(8.0, ladder["top"]), 3)
                if any(abs(kev - e) < GAP for e in pool):
                    continue
                self._add_level(nid, kev, jpi=rng.choice(JPI_POOL))
                placed += 1

    # -- transitions --

    def _canon(self, nid: str, kev: float) -> float:
        """Snap an energy to the nuclide's nearest level (tolerance mirror)."""
        pool = self.levels.get(nid, {})
        if kev in pool:
            return kev
        best = min(pool, key=lambda e: abs(e - kev), default=kev)
        return best if abs(best - kev) < 2.05 else kev

    def _closure(self, nid: str, seeds: list[float]) -> set[float]:
        reach = {self._canon(nid, s) for s in seeds}
        trans = self.transitions.get(nid, {})
        changed = True
        while changed:
            changed = False
            for (start, end) in trans:
                if start in reach and end not in reach:
                    reach.add(end)
                    changed = True
        return reach

    def build_transitions(self) -> None:
        for nid, spec in self.table.items():
            tmap = self.transitions.setdefault(nid, {})
            for start, end, _e, inten in spec.get("own_transitions", ()):
                tmap[(start, end)] = inten
        for nid in self.table:
            tmap = self.transitions.setdefault(nid, {})
            rng = random.Random(f"trans:{nid}")
            for _, md, _pl in self._feeding_parents(nid):
                for pin in md["pinned"]:
                    pair = (pin[2], pin[3])
                    if pair[0] == pair[1]:
                        raise RuntimeError(f"{nid}: degenerate pinned transition")
                    tmap.setdefault(pair, pin[1])
            ordered = sorted(self.levels[nid])
            for low, high in zip(ordered, ordered[1:]):
                tmap.setdefault((high, low),
                                round(10 ** rng.uniform(-2.5, 1.2), 5))
        # cross transitions until every feeding mode can meet its quota
        for nid in self.table:
            rng = random.Random(f"cross:{nid}")
            tmap = self.transitions[nid]
            ordered = sorted(self.levels[nid])
            needs = []
            for pid, md, p_level in self._feeding_parents(nid):
                if md["quota"] <= 0 or md["no_auto"]:
                    continue
                pinned_in = sum(
                    1 for e, inten, _s, _e2 in md["pinned"]
                    if GBOUNDS[0] <= e <= GBOUNDS[1] and inten >= IFLOOR
                )
                auto_needed = md["quota"] - pinned_in
                if auto_needed <= 0:
                    continue
                seeds = [kev for kev, _ in md["feeds"]]
                if md["mode"] == "IT":
                    seeds.append(p_level)
                slack = 8 if auto_needed >= 8 else 2
                needs.append((auto_needed + len(md["pinned"]) + slack, seeds))
            def usable(pair, reach) -> bool:
                if pair[0] not in reach:
                    return False
                delta = round(pair[0] - pair[1], 4)
                if not (GBOUNDS[0] <= delta <= GBOUNDS[1]):
                    return False
                return not any(abs(delta - r) < RESERVE_HALO
                               for r in RESERVED_GAMMAS)

            guard = 0
            while True:
                unmet = []
                for want, seeds in needs:
                    reach = self._closure(nid, seeds)
                    have = sum(1 for pair in tmap if usable(pair, reach))
                    if have < want:
                        unmet.append((want, seeds, reach))
                if not unmet:
                    break
                guard += 1
                if guard > 60000:
                    raise RuntimeError(f"{nid}: cannot satisfy gamma quotas")
                _want, _seeds, reach = unmet[0]
                candidates = [e for e in ordered if e in reach and e > 0]
                if len(candidates) < 2:
                    raise RuntimeError(f"{nid}: quota needs more fed levels")
                start = rng.choice(candidates[1:])
                below = [e for e in ordered if e < start - 0.5]
                end = rng.choice(below)
                if (start, end) in tmap:
                    continue
                tmap[(start, end)] = round(10 ** rng.uniform(-2.5, 1.0), 5)

    # -- decay radiation rows --

    def _row(self, pid, p_level, p_hl, md, **kw):
        sym, a = split_id(pid)
        dsym, da = split_id(md["daughter"])
        hl_s, hl_u = ("", "")
        if p_hl and p_hl != "stable":
            hl_s, hl_u = p_hl
        base = {
            "energy": "", "unc_en": 0.5, "intensity": "", "unc_i": "",
            "p_symbol": sym, "p_a": a, "p_energy": p_level, "unc_pe": 0.1,
            "half_life_sec": hl_s, "unc_hls": hl_u,
            "decay": md["mode"], "decay_%": md["pct"], "unc_d": "",
            "d_symbol": dsym, "d_a": da,
            "daughter_level_energy": "", "start_level_energy": "",
            "end_level_energy": "",
        }
        base.update(kw)
        return base

    def build_rows(self) -> None:
        for pid, spec in self.table.items():
            for dec in spec.get("decays", ()):
                p_level = dec["level"]
                p_hl = dec["hl"] or spec.get("hl")
                for md in dec["modes"]:
                    self._mode_rows(pid, p_level, p_hl, md)
            for kind, key in (("electrons", "e"), ("xrays", "x")):
                for e, i, p_level, daughter, mcode, mpct in spec.get(kind, ()):
                    fake = {"mode": mcode, "pct": mpct, "daughter": daughter}
                    self.rows[(pid, key)].append(self._row(
                        pid, p_level, spec.get("hl"), fake,
                        energy=e, unc_en=0.2, intensity=i, unc_i=round(i * 0.05, 6),
                    ))

    def _mode_rows(self, pid, p_level, p_hl, md) -> None:
        did = md["daughter"]
        rng = random.Random(f"rows:{pid}:{p_level}:{md['mode']}:{did}")
        if md["mode"] == "A":
            for kev, pct in md["feeds"]:
                energy = round(md["alpha0"] - 0.982 * kev, 2)
                self.rows[(pid, "a")].append(self._row(
                    pid, p_level, p_hl, md,
                    energy=energy, unc_en=1.5,
                    intensity="" if md["blank_intensity"] else pct,
                    unc_i="" if md["blank_intensity"] else round(pct * 0.03, 6),
                    daughter_level_energy=kev,
                ))
                if not md["blank_intensity"] and pct >= IFLOOR \
                        and ABOUNDS[0] <= energy <= ABOUNDS[1]:
                    self.counts[(pid, "a")] += 1
            for energy, pct, kev in md["extras_alpha"]:
                self.rows[(pid, "a")].append(self._row(
                    pid, p_level, p_hl, md,
                    energy=energy, unc_en=2.0, intensity=pct,
                    unc_i=round(pct * 0.1, 7), daughter_level_energy=kev,
                ))
                if pct >= IFLOOR and ABOUNDS[0] <= energy <= ABOUNDS[1]:
                    self.counts[(pid, "a")] += 1
        elif md["mode"] in ("B-", "EC+B+"):
            kindcode = MODE_TO_KIND[md["mode"]]
            top = max((kev for kev, _ in md["feeds"]), default=0.0)
            for kev, pct in md["feeds"]:
                energy = round(max(15.0, (top + 700.0 - kev) * 0.35), 1)
                self.rows[(pid, kindcode)].append(self._row(
                    pid, p_level, p_hl, md,
                    energy=energy, unc_en=0.8, intensity=pct,
                    unc_i=round(pct * 0.04, 6), daughter_level_energy=kev,
                ))
        self._gamma_rows(pid, p_level, p_hl, md, rng)

    def _gamma_rows(self, pid, p_level, p_hl, md, rng) -> None:
        did = md["daughter"]
        emitted_pairs = set()
        in_bounds = 0
        for e, inten, start, end in md["pinned"]:
            self.rows[(pid, "g")].append(self._row(
                pid, p_level, p_hl, md,
                energy=e, unc_en=round(rng.uniform(0.003, 0.1), 3),
                intensity=inten, unc_i=round(inten * 0.03, 6),
                daughter_level_energy=end, start_level_energy=start,
                end_level_energy=end,
            ))
            emitted_pairs.add((start, end))
            if GBOUNDS[0] <= e <= GBOUNDS[1] and inten >= IFLOOR:
                in_bounds += 1
                self.counts[(pid, "g")] += 1
        if in_bounds > md["quota"]:
            raise RuntimeError(f"{pid}->{did}: pinned rows exceed quota")
        if md["no_auto"]:
            if in_bounds != md["quota"]:
                raise RuntimeError(f"{pid}->{did}: no_auto quota mismatch")
            return
        if md["quota"] == 0:
            return

        seeds = [kev for kev, _ in md["feeds"]]
        if md["mode"] == "IT":
            seeds.append(p_level)
        reach = self._closure(did, seeds)
        pool = sorted(
            (pair for pair in self.transitions[did]
             if pair[0] in reach and pair not in emitted_pairs),
            key=lambda pair: (-pair[0], -pair[1]),
        )
        needed = md["quota"] - in_bounds
        tiny_budget = 2 if md["quota"] >= 8 else 0
        for start, end in pool:
            if needed <= 0 and tiny_budget <= 0:
                break
            e = round(start - end, 4)
            if any(abs(e - r) < RESERVE_HALO for r in RESERVED_GAMMAS):
                continue
            if needed > 0:
                if not (GBOUNDS[0] <= e <= GBOUNDS[1]):
                    continue
                inten = round(10 ** rng.uniform(-2.8, 1.5), 6)
                needed -= 1
            else:
                inten = round(10 ** rng.uniform(-4.0, -3.2), 7)
                tiny_budget -= 1
            self.rows[(pid, "g")].append(self._row(
                pid, p_level, p_hl, md,
                energy=e, unc_en=round(rng.uniform(0.01, 0.3), 3),
                intensity=inten, unc_i=round(inten * 0.05, 7),
                daughter_level_energy=end, start_level_energy=start,
                end_level_energy=end,
            ))
            if GBOUNDS[0] <= e <= GBOUNDS[1] and inten >= IFLOOR:
                self.counts[(pid, "g")] += 1
        if needed > 0:
            raise RuntimeError(
                f"{pid}->{did}: short {needed} gamma rows for quota "
                f"{md['quota']}"
            )

    # -- verification and output --

    def verify(self) -> None:
        inherited: dict[str, set[float]] = defaultdict(set)
        for (pid, kind), rows in self.rows.items():
            for row in rows:
                did = f"{row['d_a']}{row['d_symbol'].lower()}"
                if did == pid and kind != "g":
                    continue
                if kind == "g":
                    if row["start_level_energy"] != "" and did != pid:
                        inherited[did].add(row["start_level_energy"])
                elif row["daughter_level_energy"] != "":
                    inherited[did].add(row["daughter_level_energy"])
        for nid, spec in self.table.items():
            for dec in spec.get("decays", ()):
                inherited[nid].add(dec["level"])
        for (pid, kind), rows in self.rows.items():
            if kind != "g":
                continue
            for row in rows:
                did = f"{row['d_a']}{row['d_symbol'].lower()}"
                start = row["start_level_energy"]
                if start == "":
                    continue
                reach = self._closure(did, sorted(inherited[did]))
                if start not in reach:
                    raise RuntimeError(
                        f"{pid} gamma {row['energy']} starts at unreachable "
                        f"level {start} of {did}"
                    )

    def write(self, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        for old in out.glob("*.csv"):
            old.unlink()
        written = set()

        def dump(name: str, columns, rows) -> None:
            with (out / name).open("w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(columns),
                                        lineterminator="\n")
                writer.writeheader()
                for row in rows:
                    writer.writerow({c: fnum(row.get(c, "")) for c in columns})
            written.add(name)

        for (pid, kind), rows in sorted(self.rows.items()):
            if not rows:
                continue
            dump(f"{pid}_dr-{kind}.csv", DR_COLUMNS, rows)

        for nid in self.table:
            sym, a = split_id(nid)
            lv_rows = []
            for kev in sorted(self.levels[nid]):
                entry = self.levels[nid][kev]
                hl = entry.get("hl")
                if hl == "stable":
                    hl_s, hl_u = "STABLE", ""
                elif hl:
                    hl_s, hl_u = hl
                else:
                    hl_s, hl_u = "", ""
                row = {
                    "symbol": sym, "a": a, "energy": kev,
                    "unc_e": entry.get("unc", 0.1), "jp": entry.get("jpi") or "",
                    "half_life_sec": hl_s, "unc_hls": hl_u,
                }
                modes = entry.get("modes") or []
                if kev == 0.0 and not modes:
                    spec = self.table[nid]
                    for dec in spec.get("decays", ()):
                        if dec["level"] == 0.0:
                            modes = [(m["mode"], m["pct"]) for m in dec["modes"]]
                for i, (code, pct) in enumerate(modes[:3], start=1):
                    row[f"decay_{i}"] = code
                    row[f"decay_{i}_%"] = pct
                lv_rows.append(row)
            dump(f"{nid}_lv.csv", LV_COLUMNS, lv_rows)

            tmap = self.transitions.get(nid) or {}
            if tmap:
                tr_rows = []
                for (start, end) in sorted(tmap, key=lambda p: (-p[0], -p[1])):
                    tr_rows.append({
                        "symbol": sym, "a": a,
                        "start_level_energy": start, "unc_sl": 0.1,
                        "end_level_energy": end, "unc_el": 0.1,
                        "energy": round(start - end, 4), "unc_en": 0.05,
                        "intensity": tmap[(start, end)], "unc_i": "",
                    })
                dump(f"{nid}_tr.csv", TR_COLUMNS, tr_rows)

        # absence registry covering every dataset the corpus lacks
        absent = []
        for nid in sorted(self.table):
            for kind in ("dr-a", "dr-bm", "dr-bp", "dr-g", "dr-e", "dr-x",
                         "lv", "tr"):
                if f"{nid}_{kind}.csv" not in written:
                    absent.append(f"{nid}:{kind}")
        (out / "absent_registry.txt").write_text(
            "".join(f"{k}\n" for k in sorted(absent)), encoding="utf-8"
        )
        return {
            "files": len(written),
            "absent_keys": len(absent),
            "counts": {f"{pid}:{kind}": n
                       for (pid, kind), n in sorted(self.counts.items())},
        }


SERIES = {
    "thorium": ["232th", "228ra", "228ac", "228th", "224ra", "220rn", "216po",
                "212pb", "212bi", "212po", "208tl"],
    "neptunium": ["237np", "233pa", "233u", "229th", "225ra", "225ac", "221fr",
                  "217at", "213bi", "213po", "209tl", "209pb", "209bi"],
    "uranium": ["238u", "234th", "234pa", "234u", "230th", "226ra", "222rn",
                "218po", "218at", "214pb", "214bi", "214po", "210tl", "210pb",
                "210bi", "206tl", "210po"],
    "actinium": ["235u", "231th", "231pa", "227ac", "223fr", "227th", "223ra",
                 "219rn", "215po", "211pb", "211bi", "207tl", "211po"],
}


def main() -> int:
    builder = CorpusBuilder(NUC)
    builder.build_levels()
    builder.build_transitions()
    builder.build_rows()
    builder.verify()
    manifest = builder.write(ROOT / "fixtures")

    mini = CorpusBuilder(MINI)
    mini.build_levels()
    mini.build_transitions()
    mini.build_rows()
    mini.verify()
    mini_manifest = mini.write(ROOT / "tests" / "data" / "mini")

    summary = {"main": manifest, "mini": mini_manifest, "series": {}}
    for name, members in SERIES.items():
        summary["series"][name] = {
            "alpha": sum(manifest["counts"].get(f"{m}:a", 0) for m in members),
            "gamma": sum(manifest["counts"].get(f"{m}:g", 0) for m in members),
        }
    alphas = [v["alpha"] for v in summary["series"].values()]
    gammas = [v["gamma"] for v in summary["series"].values()]
    summary["means"] = {
        "alpha": sum(alphas) / 4.0,
        "gamma": sum(gammas) / 4.0,
    }
    (ROOT / "fixtures" / "manifest.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary["series"], indent=2))
    print("means:", summary["means"])
    print(f"files: {manifest['files']}, absent: {manifest['absent_keys']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
