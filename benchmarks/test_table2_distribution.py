"""Table 2: message distribution by protocols and applications.

Paper's row shape: Zoom {RTP 78.9%, RTCP 1.1%, FP 20.0%, no QUIC};
FaceTime {RTP 97.6%, QUIC 0.1%, no RTCP}; Discord {no STUN};
Meet {STUN/TURN 19.8% — far above everyone else}.
"""

from repro.dpi import ColumnarEngine
from repro.experiments.tables import render_table2, table2


def test_table2(matrix, zoom_kept_records, benchmark):
    distribution = table2(matrix)
    print("\n" + render_table2(distribution))

    zoom = distribution["zoom"]
    assert zoom["fully_proprietary"] > 0.08          # paper: 20.0%
    assert zoom["rtp"] > 0.7                          # paper: 78.9%
    assert "quic" not in zoom or zoom["quic"] == 0.0

    facetime = distribution["facetime"]
    assert facetime["rtp"] > 0.85                     # paper: 97.6%
    assert 0 < facetime["quic"] < 0.05                # paper: 0.1%
    assert "rtcp" not in facetime                     # FaceTime has no RTCP

    discord = distribution["discord"]
    assert "stun_turn" not in discord                 # Discord has no STUN
    assert discord["rtp"] > 0.85                      # paper: 91.4%
    assert 0.02 < discord["rtcp"] < 0.15              # paper: 7.9%

    meet = distribution["meet"]
    others = [d.get("stun_turn", 0.0) for app, d in distribution.items()
              if app not in ("meet",)]
    assert meet["stun_turn"] > 0.1                    # paper: 19.8%
    assert meet["stun_turn"] > max(others) * 3        # far above everyone else

    engine = ColumnarEngine()
    result = benchmark(engine.analyze_records, zoom_kept_records)
    assert result.messages()
