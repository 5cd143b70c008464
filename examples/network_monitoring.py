#!/usr/bin/env python3
"""Network monitoring (Section II.B): trends, matrices, and a DDoS.

Drives :class:`~repro.scenarios.NetworkScenario`: four router sites
stream flow exports into per-site data stores, and three applications
consume the summaries:

* **NetworkTrendsApp** — popular services and source prefixes (problem a)
* **TrafficMatrixApp** — demand matrix + hottest hierarchy link (problem b)
* **DDoSInvestigationApp** — Diff-based incident localization with an
  automatic mitigation rule installed at the site controller (problem c)

In epoch 3 a DDoS is injected at region2; watch the investigation find
the victim and the attacking prefixes, then install a rate-limit rule.
Exits 1 if that story breaks: no finding at region2 in the attack
epoch, a finding anywhere else, or no mitigation rule.

Run:  python examples/network_monitoring.py
"""

import sys

from repro.scenarios import NetworkScenario

EPOCHS = 4
ATTACK_EPOCH = 3
ATTACK_SITE = "region2/router1"


def main() -> int:
    scenario = NetworkScenario(flows_per_epoch=2500)
    outcome = scenario.run(
        EPOCHS, attacks=[(ATTACK_EPOCH, ATTACK_SITE)], attack_flows=2500
    )

    print(f"== {len(outcome.sites)} sites, {EPOCHS} epochs, DDoS on "
          f"{ATTACK_SITE} in epoch {ATTACK_EPOCH} ==\n")
    for epoch in range(EPOCHS):
        now = (epoch + 1) * scenario.epoch_seconds
        print(f"-- epoch {epoch} closed at t={now:.0f}s --")
        snapshot = next(r for r in outcome.trend_reports if r.time == now)
        top_services = ", ".join(
            f"{port} ({volume/1e6:.1f} MB)"
            for port, volume in snapshot.services[:3]
        )
        print(f"  trends@{snapshot.site.split('/')[-2]}: {top_services}")
        matrix = next(r for r in outcome.matrix_reports if r.time == now)
        print(
            f"  matrix: {matrix.body['entries']} entries, hottest link "
            f"{matrix.body['hottest_link']}"
        )
        findings = [f for f in outcome.findings if f.time == now]
        for finding in findings:
            print(f"  !! DDoS at {finding.site}: victim {finding.victim} "
                  f"(+{finding.surge_bytes/1e6:.1f} MB)")
            for prefix, volume in finding.top_sources[:3]:
                print(f"       source {prefix}: {volume/1e6:.1f} MB")
        if not findings:
            print("  no incidents")
        print()

    attacked = f"cloud/network/{ATTACK_SITE}"
    rules = outcome.mitigation_rules.get(attacked, [])
    print("== mitigation rules at the attacked site ==")
    for rule_id in rules:
        print(f"  {rule_id}")
    print(f"\nWAN bytes carried: {outcome.wan_bytes:,}")

    attack_time = (ATTACK_EPOCH + 1) * scenario.epoch_seconds
    expected = {(attacked, attack_time)}
    found = {(finding.site, finding.time) for finding in outcome.findings}
    return 0 if found == expected and rules else 1


if __name__ == "__main__":
    sys.exit(main())
