"""Pinned stdout digests of the commands that build transport plans and maps.

Each case runs one `posetval` command in process and compares its exit
code and the SHA-256 digest of its stdout with the values recorded here.
The plans printed by `order` and `transport`, the stages printed by
`schedule` and the maps behind `represent`, `sample`, `skorohod` and
`converge` are deterministic, so a change to how a stage is built or
written, or how a plan is solved, checked or dealt out to the slots, fails
here by the name of the case it moved.
"""

import hashlib
import io
import sys

import pytest

from posetval.cli import main

M4 = """element bot
element a
element b
element top
bottom bot
cover bot a
cover bot b
cover a top
cover b top
"""

# ten elements, e0 below all; a random order drawn once and written out
P10 = "".join("element e%d\n" % i for i in range(10)) + "bottom e0\n" \
    + "".join("cover %s %s\n" % pair for pair in [
        ("e0", "e%d" % i) for i in range(1, 10)] + [
        ("e1", "e6"), ("e1", "e9"), ("e2", "e5"), ("e2", "e6"), ("e3", "e7"),
        ("e3", "e9"), ("e4", "e6"), ("e4", "e9"), ("e5", "e7"), ("e5", "e9"),
        ("e7", "e8"), ("e7", "e9"), ("e8", "e9")])

FILES = {
    "m4.poset": M4,
    "p10.poset": P10,
    "halves.val": "a 1/2^1\nb 1/2^1\n",
    "top.val": "top 1\n",
    "da.val": "a 1\n",
    "db.val": "b 1\n",
    "halftop.val": "top 1/2^1\n",
    # two runs under bot's first lift, three afterwards
    "q.val": "a 1/2^2\nb 1/2^2\ntop 1/2^1\n",
    "stage1.val": "bot 1/2^1\ntop 1/2^1\n",
    "stage2.val": "bot 1/2^2\ntop 3/2^2\n",
    # approaching top under the Portmanteau gate, but words under b never
    # rise to top, so the pointwise check fails
    "bt1.val": "b 1/2^1\ntop 1/2^1\n",
    "bt2.val": "b 1/2^2\ntop 3/2^2\n",
    "plan_mu.val": "bot 1/2^2\na 1/2^2\nb 1/2^1\n",
    "plan_nu.val": "a 1/2^2\nb 1/2^2\ntop 1/2^1\n",
    # p10 weights at 2^-11, nu above mu: each unit of mu moved upward
    "mu11.val": "e0 51/2^9\ne1 205/2^11\ne2 53/2^9\ne3 201/2^11\n"
                "e4 49/2^9\ne5 101/2^10\ne6 111/2^10\ne7 207/2^11\n"
                "e8 187/2^11\ne9 53/2^9\n",
    "nu11.val": "e0 23/2^11\ne1 47/2^10\ne2 53/2^11\ne3 31/2^10\n"
                "e4 5/2^7\ne5 91/2^11\ne6 209/2^10\ne7 241/2^11\n"
                "e8 43/2^8\ne9 321/2^10\n",
    # a target at 2^-5 and the two stages of its schedule below it
    "t5.val": "e0 1/2^4\ne1 3/2^4\ne2 1/2^3\ne3 1/2^4\ne4 3/2^5\n"
              "e5 1/2^5\ne6 3/2^5\ne7 3/2^5\ne8 1/2^3\ne9 1/2^3\n",
    "s1.val": "e0 17/2^5\ne1 3/2^5\ne2 1/2^4\ne3 1/2^5\ne4 3/2^6\n"
              "e5 1/2^6\ne6 3/2^6\ne7 3/2^6\ne8 1/2^4\ne9 1/2^4\n",
    "s2.val": "e0 19/2^6\ne1 9/2^6\ne2 3/2^5\ne3 3/2^6\ne4 9/2^7\n"
              "e5 3/2^7\ne6 9/2^7\ne7 9/2^7\ne8 3/2^5\ne9 3/2^5\n",
}


def cases():
    """(name, argv) for every pinned run; argv names FILES by key."""
    out = []
    for poset, mu in (("m4", "q"), ("m4", "halves"), ("p10", "mu11"),
                      ("p10", "t5")):
        given = ["--poset", "%s.poset" % poset, "--mu", "%s.val" % mu]
        for k in range(1, 5):
            K = ["--K", str(k)]
            tag = "%s-%s-K%d" % (poset, mu, k)
            out.append(("represent-" + tag, ["represent"] + given + K))
            out.append(("sample-" + tag, ["sample"] + given + K
                        + ["--count", "500", "--seed", "3"]))
            out.append(("skorohod-" + tag, ["skorohod"] + given + K))
            out.append(("schedule-" + tag, ["schedule"] + given + K))
    for k in range(1, 5):
        K = ["--K", str(k)]
        out.append(("skorohod-m4-halftop-K%d" % k, [
            "skorohod", "--poset", "m4.poset", "--mu", "halftop.val"] + K))
        out.append(("converge-m4-K%d" % k, [
            "converge", "--poset", "m4.poset", "--seq",
            "stage1.val,stage2.val,top.val", "--nu", "top.val"] + K))
        out.append(("converge-m4-fail-K%d" % k, [
            "converge", "--poset", "m4.poset", "--seq",
            "bt1.val,bt2.val", "--nu", "top.val"] + K))
        out.append(("converge-m4-gate-K%d" % k, [
            "converge", "--poset", "m4.poset", "--seq",
            "da.val,db.val,da.val", "--nu", "da.val"] + K))
        out.append(("converge-p10-K%d" % k, [
            "converge", "--poset", "p10.poset", "--seq",
            "s1.val,s2.val,t5.val", "--nu", "t5.val"] + K))
    for command in ("order", "transport"):
        for poset, mu, nu in (("m4", "halves", "top"), ("m4", "q", "top"),
                              ("m4", "plan_mu", "plan_nu"),
                              ("m4", "da", "db"), ("p10", "mu11", "nu11"),
                              ("p10", "nu11", "mu11")):
            out.append(("%s-%s-%s-%s" % (command, poset, mu, nu), [
                command, "--poset", "%s.poset" % poset,
                "--mu", "%s.val" % mu, "--nu", "%s.val" % nu]))
    return out


def digest(argv, where) -> tuple:
    """(exit code, SHA-256 of stdout) of one run, FILES written to where."""
    paths = {}
    for name, text in FILES.items():
        path = where / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    buf = io.StringIO()
    real, sys.stdout = sys.stdout, buf
    try:
        code = main([",".join(paths.get(b, b) for b in a.split(","))
                     for a in argv])
    finally:
        sys.stdout = real
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


# case -> (exit code, SHA-256 of stdout)
GOLDEN = {
    'represent-m4-q-K1': (0, '94d83f782261d03710ff0dfd6a94220c69501ea893ce82b5c411e8dab1fc65b7'),
    'sample-m4-q-K1': (0, '9fd7bacf125b1a7984956f8c7b40068231aa4a9fa6592224c480d49c727e59ec'),
    'skorohod-m4-q-K1': (0, '512da14b1104860eec90ee3a6c5b18a0eb4299cdce2aaaae347ffc69953f9d93'),
    'represent-m4-q-K2': (0, 'd267e8ad9e2c5ef04f3cf02bee68a27c1fce376370bdda27f9458819fe68fc13'),
    'sample-m4-q-K2': (0, 'bf939476eb93a748634f1070abf34ea005f5964025efee6ecd8efa615335a44c'),
    'skorohod-m4-q-K2': (0, 'cea070ec647387c733436f0afc71b2b2b4fa718bfc225d54d55ababbcafff957'),
    'represent-m4-q-K3': (0, 'fe86b0252b489e0c8338d541e30f625d360b48fbb5b05a55c5169cb39df3f640'),
    'sample-m4-q-K3': (0, '21052fc850c322923cdfd6ec91661f62c3ba36459fdffb2771df768ffee2a0d9'),
    'skorohod-m4-q-K3': (0, 'b6216afba3b3c39638053cbbf178516981afae7eb42e12c5411a6441ce94422e'),
    'represent-m4-q-K4': (0, 'ceafe94b232bec92dc52fadf5d0b5ba6c75d6aba84472f054ef202c3f9275dff'),
    'sample-m4-q-K4': (0, '7fbe9fb4a3006cca1ccf24fe5de9fccb3ebee427bd09e10573ffbef44a5d85d1'),
    'skorohod-m4-q-K4': (0, '502fc4a185d69b898c43224ed22777f19641fb835c365a680b957d68915ed905'),
    'represent-m4-halves-K1': (0, '96ca79538679aa79a9a364feb70cd232ad67df6bbb679be5c640d4c74f286f27'),
    'sample-m4-halves-K1': (0, '15b3649aceefadca6f6a47f16c38ced0714b2ce364472504c0bd81a6ae29bc2c'),
    'skorohod-m4-halves-K1': (0, 'd2e783dca276c3b89088a57455dc69719dc0d0593532748045c98153e731e56b'),
    'represent-m4-halves-K2': (0, 'e41991edb728fcb6dd272dd78ba9f765539b1368fb993508d056e71d44ffc12b'),
    'sample-m4-halves-K2': (0, 'f24b8799c222c4e4adb1a294b66282080faffc748631b09be0980fb9237b05e5'),
    'skorohod-m4-halves-K2': (0, '2995f9398d1a535e87d4326ac2b2789207ec562d1295672f6e92818f60fc6fdc'),
    'represent-m4-halves-K3': (0, 'd47e8939398aaf9884473d922cc984fe0892b52acedf099a300a9f53c75a06a2'),
    'sample-m4-halves-K3': (0, 'c55eeb081c276ed7e9d26694becc449071918dc553c1807194ba0a75af985c4e'),
    'skorohod-m4-halves-K3': (0, 'c50024467ba3c6cf1155af44c1b229abafd5da2f1502a29f944bcbf7c1981e3c'),
    'represent-m4-halves-K4': (0, '65d0326b99171e7aaef4c77830c07ad502437ddf10ff76af73fa2beb4b22d74a'),
    'sample-m4-halves-K4': (0, 'ca652bf37ec196484dfa3edf3a6dbfb41a1bde1ba1b16d0c43e7cc5844dc8d6c'),
    'skorohod-m4-halves-K4': (0, 'e20bdaefabfeb669272839ba00688d7c0829f66948ccca728564c3fcff6ee771'),
    'represent-p10-mu11-K1': (0, 'b3ae99cdc9b08af412b0df2f37ec374f467e6607325f3df2afb6e4c9f8e64029'),
    'sample-p10-mu11-K1': (0, '1e1d510dabca3ca6c74080ca4ef0a6e3b34f2c82f59e28f91a526cb2cb1e1640'),
    'skorohod-p10-mu11-K1': (0, '34ded61f0039d58e852d89f896cbeac64d086ae03fd4d5b3d45f227686496be8'),
    'represent-p10-mu11-K2': (0, '9050a8fa38e37b70ae5b9329b08035b63b58b5049f5766f1341a8b782b18ec11'),
    'sample-p10-mu11-K2': (0, '118c8fa5b5225a07dc129fa34f79019787b283e190f3d6cee5847b86e489e93b'),
    'skorohod-p10-mu11-K2': (0, '0bb496a6175b85c90a05a507cdee270fb5f38f16a35975f0fdc5b4700e228ead'),
    'represent-p10-mu11-K3': (0, '862eeed1c6edd21e5d01a85ba579711ad04746f1af66953e5a0d6bb844297ab4'),
    'sample-p10-mu11-K3': (0, 'e1d0f51132e98248e100710ab7008336770721b01ee6a05ba1ead9de5bef36aa'),
    'skorohod-p10-mu11-K3': (0, 'fe101a1211cc4c50cab5e3043b751288d1267eb4f3e9ca26a37f4db40ca9df57'),
    'represent-p10-mu11-K4': (0, '32387f1cabc533cc2125f4002251079f8137e335defa8675872abb0c5a22ac1e'),
    'sample-p10-mu11-K4': (0, 'b63af64693c94dbd1df195bd41a885a9976f238c26547c5dfcfb4b31af1454f6'),
    'skorohod-p10-mu11-K4': (0, '98974c72c295b258a6f5d236b562e38ed723cd493ce0e19a503fabb119a61cee'),
    'represent-p10-t5-K1': (0, '1fab8f48d21203f2ce54e075cbfdef4a460403c6e8f8683dc4a45c002b6519fc'),
    'sample-p10-t5-K1': (0, '4251b2faf567673c8b3ebdcac51186f21eb49fdfeece34a3a8bcf392ad5fa64d'),
    'skorohod-p10-t5-K1': (0, 'd669e9ca7d691f3fae2b9c5e3377a0170892e155289ac7d74850b9d119213de3'),
    'represent-p10-t5-K2': (0, '68b964b74567e60b9095d3afa7c348dd528106582f4249464e25d8e3a9497770'),
    'sample-p10-t5-K2': (0, '1332b36df20d6a51c502d21b947b0130e10dc9f4c86ee542f9ef3895ca2e03c6'),
    'skorohod-p10-t5-K2': (0, '25652608f0d6cc853270a01e2044e97822a4c202b117d6a86f8e8f9926f20eaf'),
    'represent-p10-t5-K3': (0, '221d614a509d4fb6164191a7e06942a8a518a5ea0a21984dd1766d5b3dc2cfdb'),
    'sample-p10-t5-K3': (0, '4d27f33db8c9dde80d4858c46341b705d57d5c6d76db0607aaa5614b45107f83'),
    'skorohod-p10-t5-K3': (0, 'a0f8a1253041dcff16a1e4e86733897ed750f35f92618d97eff5028d7cb99579'),
    'represent-p10-t5-K4': (0, '9454e72843c58909b9518b76002f9e03a606e4a4401f3443ec00090c2e5c675a'),
    'sample-p10-t5-K4': (0, 'd055f75c8bb31907c1fac365b530d34786c08979a02445fb7fe4d760d3a65844'),
    'skorohod-p10-t5-K4': (0, '66331fa692760d4adf6dae405eee17a25b89d3f88c38abebaa8b6d783f10cfb7'),
    'skorohod-m4-halftop-K1': (0, 'a116be416a7dde2b7ad28c43b88bdcc2cfe83f5924c23040f10d5e3f9bd2dc85'),
    'converge-m4-K1': (0, 'f575c4864fc489eb4af18f58714e93cb39e1f705f169980c46c3eb2f82dda0cd'),
    'converge-m4-fail-K1': (1, '228f0bc3996de233ed6d60a87dae7a14a314e5944c7f105f9d401765203e78cd'),
    'converge-m4-gate-K1': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'converge-p10-K1': (0, 'd9d0b5258440ea2cea9406e00980b4735088bc0dd7db7f123ef69e9b9f909d69'),
    'skorohod-m4-halftop-K2': (0, '50566bb3594d5a6dc666950a3afa6d72132778fd8c67d6d654cbe4d3b4618459'),
    'converge-m4-K2': (0, '87d592a5c4c774a89090900b0cf8543937c1bce3b8feffd6b07892f0896c3cfe'),
    'converge-m4-fail-K2': (1, '68dd77e67c6e9c108a0ce8738de7dbf950e94109e946cc327a7e70c8ca0a7f6d'),
    'converge-m4-gate-K2': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'converge-p10-K2': (0, '69ac1573736241c5cfdbd087da30ca970fe2a6db07f6e54a5d7172fda9d99cc6'),
    'skorohod-m4-halftop-K3': (0, '6de0a6ac528903b06c1145f0aa6ada2fe5ceb7802f4eac1c7a6a8d047e49cad0'),
    'converge-m4-K3': (0, '0169cd7104fdf60cc1a669d7acda278be312c7b31b942b352b89fd3b0aedd1aa'),
    'converge-m4-fail-K3': (1, '10d855fc1471474ea704bb38d4408e041bbd9657ede3f57b3860ceac55a298b8'),
    'converge-m4-gate-K3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'converge-p10-K3': (0, '3f94bb1739c2bbeb453904c20e16f14f11a4eb1ff6a0901c4c79f55e6ea71afa'),
    'skorohod-m4-halftop-K4': (0, '0175c3eadae99b144f18622b8a5559656e6f5b4274203835baaefa7c477d3cf7'),
    'converge-m4-K4': (0, '9721b77c3890433dd98614f732b7f6a88ef1ec1f0f5203d1d85da114cf60c6c1'),
    'converge-m4-fail-K4': (1, 'de0e2582df0766edea55106e7c2ca16bf3c1a69085d46114f5fa27b3bb5ef523'),
    'converge-m4-gate-K4': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'converge-p10-K4': (0, '16ed8b0ac909b7b9c3ba388980fdf717f9579451fc0f50780427c2ef39658760'),
    'schedule-m4-q-K1': (0, '369c8ba138ada351dd41c921ca373e6af74946ca869dbf4d4fa4895ff0527bc1'),
    'schedule-m4-q-K2': (0, '1334ccd6ee24790c97ac6b9e64dd7e3f1ddd950748c867bb341ece7aa41b05ee'),
    'schedule-m4-q-K3': (0, '16005d7e9de408860206b2867c029568a50ddbf1a3c64ca8a65d243c8c22ce30'),
    'schedule-m4-q-K4': (0, '8e2954e767a4cb6b93c80e174728ab46d40597537b5a5ad44f9eaf264f3e203c'),
    'schedule-m4-halves-K1': (0, 'e44aba7b9ced82f9f94a92c9d68d193c06bc4c4a8c7af92d9c5e4b2607e25635'),
    'schedule-m4-halves-K2': (0, '47966b8a5607a1277754c173d8b2fa4c7270842fb8ab9895a3bd0a9e74b96640'),
    'schedule-m4-halves-K3': (0, '94a2123d404943fbeecdd6b7895e22badb9a1651b47cce18d07bc9dcd983a887'),
    'schedule-m4-halves-K4': (0, '2a5d78f9533a0f5a2e708c0a3c7033558835689432a716b61985565779d32846'),
    'schedule-p10-mu11-K1': (0, 'db989f06f425b90fa5f7d42b088bab3e44ee22c54f03f9cc3fbd67dc54f54298'),
    'schedule-p10-mu11-K2': (0, '476d4413c40e4ebdcea901b60e31e4f4e797177fed632857435441d2e68e37e6'),
    'schedule-p10-mu11-K3': (0, 'f2daa3dd516e1c32e8415bec9fbcdf6ca0f2834a87d3421b585942f096660bc6'),
    'schedule-p10-mu11-K4': (0, '4e7542fc6bd5ff66b7fac6146f44c10e879b8037935197cff3e7dff64a8b6f2c'),
    'schedule-p10-t5-K1': (0, 'a908c2478fa9ca8e00111d38641633e61ec52997c4a547b5f2c4033b865c8d7e'),
    'schedule-p10-t5-K2': (0, '22c7a038101986f111146317019a99a9a89907d9584f6ac1c6f9ea6fc54c3e1c'),
    'schedule-p10-t5-K3': (0, 'f37c8095b18e0a3910d799bca62235f52502ca8dc6381789cfa69584a6678408'),
    'schedule-p10-t5-K4': (0, 'b387d380b852ba6f732d79c77dbab89e3bfe8c5704636623dc5de9e902169910'),
    'order-m4-halves-top': (0, 'ed0a7119a6fb83b3ca555c78caf32098e2ac8d5eb96c1cdc241e8fb3caaa7cc1'),
    'order-m4-q-top': (0, '142408b60a73208b5e218ed4482e13130b770b032b813ede120fc74f6edc045e'),
    'order-m4-plan_mu-plan_nu': (0, '36245d5ebc1e3a815af5aff0e6424fd2af21040f3e17eeec689c22d612b05585'),
    'order-m4-da-db': (1, 'ac574ed79452769da6802efab7509a70f15493e74e25b80c7c742594894c1ae8'),
    'order-p10-mu11-nu11': (0, '9f8715378c893fa62da258b357a145c1fb316e9edccdec7144bcdab2dd591e71'),
    'order-p10-nu11-mu11': (1, 'e637684cb2de0f891fff0486e538acea6f65a067fb30a41c6dc8ccbe2101bd9c'),
    'transport-m4-halves-top': (0, '2c23ed056da54d09ca0ea7e0922554a01abcf2179d36b7755cadb4490d5b3987'),
    'transport-m4-q-top': (0, '8606f17f9d5e3201a4be6ad0db2a0ec5b94ec5946032715433a3c6d2f51116c8'),
    'transport-m4-plan_mu-plan_nu': (0, 'e5efc5af2a39be1bc0ef03695d6de3b9e64fdd6c928a8016e1fd6b1ca35c69ce'),
    'transport-m4-da-db': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'transport-p10-mu11-nu11': (0, '98ab6767761bf29e9c7e286fa93d7d0b237112a891f41499a2be26fd98ad6b26'),
    'transport-p10-nu11-mu11': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


@pytest.mark.parametrize("name, argv", cases(), ids=[n for n, _ in cases()])
def test_golden_stdout(name, argv, tmp_path):
    assert digest(argv, tmp_path) == GOLDEN[name]
