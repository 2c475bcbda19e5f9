"""Table 3: protocol compliance ratio by message type.

Paper's rows: Zoom 0/2 STUN + all-RTP + 2/2 RTCP; FaceTime 0/4, 0/5, 4/4
QUIC; WhatsApp 1/10, 5/5, 4/4 (10/19); Messenger 11/18, 5/5, 4/4 (20/27);
Discord 0/9; Meet 15/16, all-RTP, 0/7.
"""

from repro.core import ComplianceChecker
from repro.experiments.tables import render_table3, table3


def test_table3(matrix, zoom_dpi, benchmark):
    table = table3(matrix)
    print("\n" + render_table3(table))

    assert table["zoom"]["stun_turn"] == (0, 2)
    assert table["zoom"]["rtcp"] == (2, 2)
    rtp_compliant, rtp_total = table["zoom"]["rtp"]
    assert rtp_compliant == rtp_total >= 38          # paper: 50/50

    assert table["facetime"]["stun_turn"] == (0, 4)
    assert table["facetime"]["rtp"] == (0, 5)
    assert table["facetime"]["quic"][0] == table["facetime"]["quic"][1] > 0

    assert table["whatsapp"]["stun_turn"] == (1, 10)
    assert table["whatsapp"]["rtp"] == (5, 5)
    assert table["whatsapp"]["rtcp"] == (4, 4)
    assert table["whatsapp"]["all"] == (10, 19)

    assert table["messenger"]["stun_turn"] == (11, 18)
    assert table["messenger"]["all"] == (20, 27)

    assert table["discord"]["all"] == (0, 9)

    assert table["meet"]["stun_turn"] == (15, 16)
    assert table["meet"]["rtcp"] == (0, 7)
    meet_rtp = table["meet"]["rtp"]
    assert meet_rtp[0] == meet_rtp[1] == 11          # paper: 11/11

    # Bottom row: across apps, STUN and RTCP lose most types.
    bottom = table["All Apps"]
    assert bottom["stun_turn"][0] / bottom["stun_turn"][1] < 0.6
    assert bottom["rtcp"][0] / bottom["rtcp"][1] < 0.6
    assert bottom["rtp"][0] / bottom["rtp"][1] > 0.8
    assert bottom["quic"][0] == bottom["quic"][1]

    checker = ComplianceChecker()
    messages = zoom_dpi.messages()
    verdicts = benchmark(checker.check, messages)
    assert len(verdicts) == len(messages)
