"""Table 1: AES-NI (on-CPU) vs QAT (off-CPU) encryption bandwidth,
16 KB blocks, one 2.40 GHz core, 1 vs 128 threads.  Model data: no
simulated points."""

from benchlib import Figure
from repro.cpu.accel import table1
from repro.harness.report import Table

PAPER = {
    "aes-128-cbc-hmac-sha1": {"qat_1": 249, "qat_128": 3144, "aesni_1": 695},
    "aes-128-gcm": {"qat_1": 249, "qat_128": 3109, "aesni_1": 3150},
}
COLUMNS = ("qat_1", "qat_128", "aesni_1")


def metrics(_):
    return {f"{cipher}.{col}_mbs": cells[col] for cipher, cells in table1().items() for col in COLUMNS}


def table(m, _):
    table = Table(
        ["cipher", "QAT 1", "QAT 128", "AES-NI 1", "paper QAT1/128/AESNI"],
        title="Table 1: encryption bandwidth (MB/s), 16KB blocks, single core",
    )
    for cipher, paper in PAPER.items():
        table.row(cipher, *(m[f"{cipher}.{col}_mbs"] for col in COLUMNS), "/".join(str(paper[col]) for col in COLUMNS))
    return table.render()


def check(_):
    rows = table1()
    cbc, gcm = rows["aes-128-cbc-hmac-sha1"], rows["aes-128-gcm"]
    # The paper's qualitative claims:
    assert cbc["qat_1"] < cbc["aesni_1"]  # 1-thread QAT loses to AES-NI
    assert cbc["qat_128"] > 4 * cbc["aesni_1"]  # threaded QAT wins CBC-HMAC
    assert 0.8 < gcm["qat_128"] / gcm["aesni_1"] < 1.25  # GCM: only parity
    assert gcm["qat_1"] * 10 < gcm["aesni_1"]  # 12.5x gap, 1 thread


TAB01 = Figure("tab01_qat_vs_aesni", (), None, metrics, table, check)
