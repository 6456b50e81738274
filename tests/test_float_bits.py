"""The float chain of a fading-averaged closed-form point, pinned bit for bit:
draw_channels on the channel seed (26, r, 1) of realization r at Ps = -60 + 5r
dBm (the closed-form curve's grid), then in each mode hypothesis_moments,
near_optimal_threshold and ber_closed_form on that channel. Float calls are
otherwise checked only against array calls, which would move with them."""

from dataclasses import replace

import numpy as np
import pytest

from ambclink import (LNA, NO_LNA, ber_closed_form, draw_channels, hypothesis_moments,
                      load_scenario, near_optimal_threshold)

# per point: Ps (dBm); then h0, hst, htr, h1 (real and imaginary parts), p0,
# p1 and |htr|^2; then delta0, delta1, var0, var1, the threshold and the BER in
# the LNA mode, and the same without the LNA
_PINNED = (
    (-60.0,
     "0x1.0bb7758283a68p-13 0x1.2afdf024e7ebep-16 -0x1.783e5b48cb2b8p-14 -0x1.76a8faaea2369p-15 0x1.6f49d5fa9f0e7p-5 0x1.fd8206312b788p-8 "
     "0x1.04ed539ac6497p-13 0x1.031574ce37b70p-16 0x1.3279415a78703p-56 0x1.21f5a63c4097bp-56 0x1.0f6681057b8c8p-9",
     "0x1.c9a767a53f50ep-32 0x1.ca35a786e4544p-32 0x1.5d141a3f4e57cp-69 0x1.5ded3ce031b20p-69 0x1.cff541ba0f4f9p-32 0x1.fdd6e24a965d7p-2",
     "0x1.b83e997102070p-34 0x1.b83ec782d4c94p-34 0x1.4306812db7543p-73 0x1.4306c4c8f3553p-73 0x1.be09df7b56872p-34 0x1.ffff45aae3c74p-2",
     ),
    (-55.0,
     "0x1.499ba6bab5acfp-14 -0x1.107c096e22b8ep-13 0x1.be2d4e986d3dap-15 -0x1.8b7a5cd1bf99bp-14 -0x1.338e9c7e7f2f8p-5 0x1.104c6176548ebp-6 "
     "0x1.480508fc391e7p-14 -0x1.084f78ce2606ep-13 0x1.504218e6bc4c1p-54 0x1.40d7c34a0a6d4p-54 0x1.b9e7f442bece9p-10",
     "0x1.c9d982b6dbe3fp-32 0x1.ca4afe29e88a2p-32 0x1.5d608e4af9f39p-69 0x1.5e0dd513930a2p-69 0x1.d01976fb26c72p-32 0x1.fe46e000d1c03p-2",
     "0x1.b83ea9ab3e900p-34 0x1.b83ece6bfcb4dp-34 0x1.430698fdfbedap-73 0x1.4306ceed28b77p-73 0x1.be09eb33d6bb0p-34 0x1.ffff6b599056dp-2",
     ),
    (-50.0,
     "-0x1.a939c73a61ba8p-13 0x1.280d691f8e796p-14 0x1.d02b3e6d85d40p-18 0x1.53840a535ed65p-18 0x1.2781e2da25d71p-8 0x1.a476e2c6ad389p-7 "
     "-0x1.a949bb87b1356p-13 0x1.2876f3b8d00dfp-14 0x1.09b87220f9f52p-51 0x1.09deb91247021p-51 0x1.83eebb0005b91p-13",
     "0x1.cb32da402ee6dp-32 0x1.cb3fdccf42510p-32 0x1.5f706197f3c41p-69 0x1.5f844bd608a66p-69 0x1.d1447b47c938ap-32 0x1.ffcd8e00f028ap-2",
     "0x1.b83f198356121p-34 0x1.b83f1db9fcb2ep-34 0x1.43073d1f2968bp-73 0x1.4307434e11c4bp-73 0x1.be0a4c08c517ep-34 0x1.ffffeef5526aep-2",
     ),
    (-45.0,
     "0x1.a16272fa77478p-13 -0x1.8ccb66f70763dp-13 -0x1.f4e022e739ba0p-13 -0x1.9fad812705a88p-13 0x1.f619907db9b00p-6 -0x1.7637752be6c2dp-5 "
     "0x1.8321869b2f750p-13 -0x1.83dbfa0ce70ecp-13 0x1.57aaafd440587p-49 0x1.372e48f65d6f8p-49 0x1.8c9c13d73e2b0p-9",
     "0x1.d1e2e76a5f3fcp-32 0x1.d1eb5468bc970p-32 0x1.69c0094d95c54p-69 0x1.69cd1f2260194p-69 0x1.d808bde40d672p-32 0x1.ffdfcc4f0b3b9p-2",
     "0x1.b84143fc7caa1p-34 0x1.b84146b70fb41p-34 0x1.430a6ad0020cep-73 0x1.430a6ed12d6dep-73 0x1.be0c7d0c7789cp-34 0x1.fffff4f69f35dp-2",
     ),
    (-40.0,
     "0x1.eb41f975ea221p-15 0x1.e19a3e2456159p-14 0x1.a6f3262793dc1p-16 0x1.3bbc36c1fc7fcp-17 0x1.3912c4a037f1ap-5 -0x1.1a58dcd83b7c9p-6 "
     "0x1.f393a61f82f06p-15 0x1.e153729f8905ep-14 0x1.dedcd0e99d237p-50 0x1.e1cd71e64b77bp-50 0x1.ccb8df8943e96p-10",
     "0x1.cf5f34e5e748dp-32 0x1.cfe1b33c768b3p-32 0x1.65db19eb7af2dp-69 0x1.66a4c4d42a0e2p-69 0x1.d5ba5fd4513b2p-32 0x1.fe0ad3ee472c3p-2",
     "0x1.b8407383edeb3p-34 0x1.b8409dc711422p-34 0x1.430938e10da02p-73 0x1.430976e636a7fp-73 0x1.be0bbddd847bep-34 0x1.ffff5511cd620p-2",
     ),
    (-35.0,
     "0x1.4445d1833aaebp-17 -0x1.252bfc5090329p-15 0x1.b7794708e558ep-16 0x1.58d2e66ce9797p-14 -0x1.5755d0b791575p-5 0x1.91615104695bcp-4 "
     "0x1.ad3166aa23880p-20 -0x1.2baa886f2853cp-15 0x1.df5cbde2fea1ep-52 0x1.d2310aef7c53bp-52 0x1.7437e4a92df7bp-7",
     "0x1.cb0aa6cdf6f89p-32 0x1.ce11389c636b8p-32 0x1.5f32db8f5fbe7p-69 0x1.63d7f6652230ap-69 0x1.d29c4269a8480p-32 0x1.f44dbf95926c0p-2",
     "0x1.b83f0c7e4c7a5p-34 0x1.b840075964b14p-34 0x1.43072a03f82d5p-73 0x1.43089a251ae56p-73 0x1.be0abbc9a4c40p-34 0x1.fffc09666d8ecp-2",
     ),
    (-30.0,
     "-0x1.dc09e8c9f047bp-15 -0x1.dfaaa6a130b39p-15 -0x1.db4923fb75b52p-16 -0x1.8bcc8de380608p-13 0x1.4c78e35a2c7adp-7 -0x1.6313349080195p-5 "
     "-0x1.0d4fb24427c07p-14 -0x1.e4be813bce380p-15 0x1.d3a74df93d616p-48 0x1.0cd8c2259c1f5p-47 0x1.03bd70d30c50bp-9",
     "0x1.e028876a8240ep-32 0x1.e4127af68d304p-32 0x1.8040db6741693p-69 0x1.868b0b3761127p-69 0x1.e873b2adf2d9ep-32 0x1.f18c3de7e34e2p-2",
     "0x1.b845e34454e68p-34 0x1.b84727c383992p-34 0x1.43113354fcc63p-73 0x1.43130f8f006c9p-73 0x1.be11cee80eb3fp-34 0x1.fffadfa2f6962p-2",
     ),
    (-25.0,
     "0x1.a6286dce6ebd3p-15 -0x1.6d5e88330083ap-14 0x1.2a4ad52d3b287p-14 0x1.6aac6c66b87cep-15 0x1.82cb866964da7p-6 0x1.0d8f2964c734dp-5 "
     "0x1.a80d722a90aaap-15 -0x1.60f31d7587912p-14 0x1.2046d70ae6778p-45 0x1.127b3e2058285p-45 0x1.adf0c5d62163dp-10",
     "0x1.1c6e2369d3e94p-31 0x1.19fd41a43e45ep-31 0x1.0dab23cdde148p-68 0x1.090f5278a2af7p-68 0x1.1eee78c8e86bcp-31 0x1.f0a8244bf9d1ap-2",
     "0x1.b8629d81fe5e6p-34 0x1.b86108c0d3d3ap-34 0x1.433b5d9ea50bep-73 0x1.43390b76d1508p-73 0x1.be2d7881662f4p-34 0x1.fff99b724476cp-2",
     ),
    (-20.0,
     "0x1.7e19345876f90p-14 -0x1.01ba3498d0fcap-14 0x1.274dd61df461bp-14 0x1.30e899c51f5c1p-15 -0x1.e17703055bee7p-6 -0x1.7d9881f2af9a0p-4 "
     "0x1.82f768856059fp-14 -0x1.1de9d634769dap-14 0x1.0fe6a53b16dc5p-43 0x1.284e7ba512164p-43 0x1.38b3aa58e7ff8p-7",
     "0x1.b6af8e8f8207ep-31 0x1.cad00f9e76474p-31 0x1.40bdf425150e0p-67 0x1.5ed93a724ddaep-67 0x1.c66d5c0919bf5p-31 0x1.b0a4acd7047eep-2",
     "0x1.b8c687f9ba8d0p-34 0x1.b8d39167bf50bp-34 0x1.43ce1a303d59ep-73 0x1.43e141fefed43p-73 0x1.be9a1b35accf5p-34 0x1.ffcb5683a9711p-2",
     ),
    (-15.0,
     "-0x1.0dd118c1e5b86p-13 -0x1.5ce54c73242e0p-13 -0x1.13f700725b3cbp-14 -0x1.32ec1398ecc73p-13 -0x1.04c2b97cc274bp-7 0x1.38b419d4a10eap-5 "
     "-0x1.0286f5efeac43p-13 -0x1.5f62632bdbc54p-13 0x1.89b31b1586f20p-40 0x1.8127a0e355997p-40 0x1.8e913f78cf590p-10",
     "0x1.4c81d31777484p-28 0x1.45efd10a21d30p-28 0x1.708960b36ae53p-62 0x1.621daf43a13c1p-62 0x1.4d85808d8d639p-28 0x1.dc8243ccd52c7p-2",
     "0x1.be656113731d6p-34 0x1.be43552f21029p-34 0x1.4c1d9c5445a88p-73 0x1.4beaf5213e4ecp-73 0x1.c43409411f038p-34 0x1.ff782c6e4958ap-2",
     ),
    (-10.0,
     "0x1.e15c13e772604p-13 -0x1.1364dc97b1828p-14 -0x1.0f490bb1e4bdbp-14 -0x1.78ace2d4c3523p-15 -0x1.2dcb60c7112d8p-10 -0x1.58dd3f63d314ap-4 "
     "0x1.da830510af40dp-13 -0x1.fe286bbfa6145p-15 0x1.9111733bb7602p-38 0x1.8248cfaf5556ap-38 0x1.d0a99610fbc02p-8",
     "0x1.3cbeca5bb58cap-26 0x1.315cfaa19e0cbp-26 0x1.4e6cdbd4aaa27p-58 0x1.36d280b8644ecp-58 0x1.3b0aef427d5dap-26 0x1.bf1e8a5819940p-2",
     "0x1.d14fabdad8779p-34 0x1.d063c0447ae6fp-34 0x1.68db88277c156p-73 0x1.676df91aabe5fp-73 0x1.d6f7ac40e3c76p-34 0x1.fc7851dc0537dp-2",
     ),
    (-5.0,
     "0x1.d5da7e76b779cp-15 0x1.90dbfa4c78146p-15 -0x1.f7532233f6d91p-14 0x1.1121c9f1c0ad0p-14 0x1.ef9eab56e1742p-7 -0x1.bd49213e604c2p-5 "
     "0x1.e299882499107p-15 0x1.c859007a4560fp-15 0x1.e2803c86c9168p-40 0x1.1702e86385a44p-39 0x1.a13fe122f9c4bp-9",
     "0x1.910e2430b6d12p-28 0x1.cb67ff5e5215ep-28 0x1.0c1354851b25bp-61 0x1.5fc1bf18bf304p-61 0x1.b1e58b50466afp-28 0x1.1bdbcaf00383ap-2",
     "0x1.bfc895993825fp-34 0x1.c0f6f32389e7fp-34 0x1.4e2ef8ffa43a0p-73 0x1.4ff2e1cb56247p-73 0x1.c6462317ac0f8p-34 0x1.fb4f41aeec890p-2",
     ),
    (0.0,
     "0x1.96ec326f030e2p-20 -0x1.3a4960ef0c7d4p-13 -0x1.f7da906a806d5p-14 -0x1.4145215ffb189p-14 0x1.b92b0a1e275c2p-7 0x1.e50d96157b0d5p-6 "
     "0x1.185d894c76c72p-19 -0x1.42c364ebe17bdp-13 0x1.8b25107df2f2dp-36 0x1.a0c7ffcf0cf0cp-36 0x1.154773db033d3p-10",
     "0x1.32cf7654940eep-24 0x1.43836699d5e60p-24 0x1.39c68060285dcp-54 0x1.5cde95ea9d583p-54 0x1.3f160e7c02b86p-24 0x1.a276d93e74f5ap-2",
     "0x1.0d83ec634cdf2p-33 0x1.10385622a189ep-33 0x1.e441b9a139196p-73 0x1.ee066c4339018p-73 0x1.126cf0458ca5bp-33 0x1.ee39b5912ff2bp-2",
     ),
    (5.0,
     "0x1.c98cb9df69857p-13 -0x1.978eeedfb758ep-13 0x1.35e473c4a08c7p-13 0x1.0255c6e11e189p-18 -0x1.530bed0f89188p-8 -0x1.230837fe20183p-6 "
     "0x1.c84377f13c704p-13 -0x1.9c71ecc8dfbefp-13 0x1.28d2db6e15871p-32 0x1.2b0ff87bc2cbdp-32 0x1.66ec38f59f176p-12",
     "0x1.ca79cae612d4fp-21 0x1.cdee9b7e0a35dp-21 0x1.5e555068d8898p-47 0x1.63a2a186e4233p-47 0x1.d240f2e71be15p-21 0x1.f2a11c7d42cacp-2",
     "0x1.96e28097dcc77p-32 0x1.991f9f8fae12cp-32 0x1.13ece4d0a2909p-69 0x1.16f858a452f91p-69 0x1.9d5ed59949adep-32 0x1.f63b07a5edae9p-2",
     ),
    (10.0,
     "0x1.d40a44e8844d3p-15 0x1.3126d3be272c2p-14 0x1.aecb1cfdaac39p-15 -0x1.aded22cef53efp-18 -0x1.9e4198b74794dp-9 0x1.4a4bf9f4ec8f2p-5 "
     "0x1.d4bfe53fa720bp-15 0x1.38e0cbf6384f9p-14 0x1.71b512e4d3dd7p-34 0x1.7e0f867090a03p-34 0x1.acc64f329b25cp-10",
     "0x1.1dd57b455b26ap-22 0x1.275ec5ee2f00bp-22 0x1.105633bbe433dp-50 0x1.22cfd4a46e442p-50 0x1.2658f5ab5bdf7p-22 0x1.c5c44e4ff012ap-2",
     "0x1.94f9d3c5f86f8p-33 0x1.9b271fd813944p-33 0x1.1157aac1ead94p-71 0x1.19be92047db93p-71 0x1.9d6934d81aa9bp-33 0x1.e510f0b30ba51p-2",
     ),
    (15.0,
     "0x1.d8d19652032dbp-13 0x1.019d68a64833cp-15 0x1.50542eeca4b15p-14 -0x1.b08da3a626ec4p-14 0x1.a19b832a70098p-6 0x1.202fedc264c12p-6 "
     "0x1.dff263a34b21ap-13 0x1.f1392e38ab648p-16 0x1.c20ad010be6f5p-30 0x1.cee6e9e657503p-30 0x1.f6d3efdb733e0p-11",
     "0x1.5b6d6820f9a99p-18 0x1.655aaaf54682ep-18 0x1.925a1568869acp-42 0x1.a9ac2e425bacap-42 0x1.64f52ecd0f45ap-18 0x1.cdf75a4dbcba8p-2",
     "0x1.dd8eb95b303f7p-30 0x1.ea6ad4881d14fp-30 0x1.7c1a1a962cdf1p-65 0x1.90d93af4cd027p-65 0x1.ea4544927a8b4p-30 0x1.d0cb3d3ccb6a6p-2",
     ),
    (20.0,
     "-0x1.1fc2741db66c0p-12 -0x1.6d048b1672f67p-13 0x1.2aee5f290bcaap-12 0x1.d066a8bf4385ap-17 0x1.325a66df091c3p-5 0x1.112289c462fcdp-5 "
     "-0x1.16562e1379de1p-12 -0x1.5a7fb3d27617cp-13 0x1.6adc0dc92effap-27 0x1.4fe5513931b7bp-27 0x1.4903762bb6aecp-9",
     "0x1.181a5f4b17c2fp-15 0x1.034a05d4a6e30p-15 0x1.0585d100c143dp-36 0x1.c0337a6e848d2p-37 0x1.10d7139dcbd01p-15 0x1.7920e2bb4b2cap-2",
     "0x1.6e4c8af27d39ap-27 0x1.5355ced2d2f46p-27 0x1.bf3ff5eba87f7p-60 0x1.7fd3f115a1f52p-60 0x1.64f0c415bb0e1p-27 0x1.7a64b6c8f772ap-2",
     ),
    (25.0,
     "-0x1.65a23ed15262ep-15 -0x1.34db1bb6eabf3p-14 0x1.33e5cf0bd632fp-13 0x1.6597fccacd7c5p-13 0x1.fc21119eef7e9p-5 -0x1.983fb9a3b6939p-6 "
     "-0x1.02ed2aa61f678p-15 -0x1.1b4a53f9ca51fp-14 0x1.3aaa3e03e3bc1p-29 0x1.df5a435d3544ap-30 0x1.24d58386805e3p-8",
     "0x1.e5d2fbcb98788p-18 0x1.720d87eaca9bap-18 0x1.895fccf9852dbp-41 0x1.c8767ea2b4be6p-42 0x1.a9abbda3fcb40p-18 0x1.e813ef9e4ada6p-4",
     "0x1.486c32a91ca42p-29 0x1.fade32e737374p-30 0x1.6789c22c7cad6p-64 0x1.ac311f9c4f1bdp-65 0x1.21e1c83487c8fp-29 0x1.0b7de2b10f398p-3",
     ),
    (30.0,
     "-0x1.7d71c576bd102p-20 0x1.a44dc6aa53c89p-13 0x1.322d982fd959dp-15 0x1.74638f6d5a051p-15 0x1.57dae56ef0e09p-5 0x1.a1cc7c018d57cp-4 "
     "-0x1.10816df6b31ffp-18 0x1.aea02973bcc86p-13 0x1.590c1677b06cep-25 0x1.6a537a23b6519p-25 0x1.8ea97168d182dp-7",
     "0x1.0a58af2803c2bp-13 0x1.17af11c4ee63ep-13 0x1.d8ea7517a108ap-33 0x1.04bb585205449p-32 0x1.14718971a430bp-13 0x1.a9aa01d72c4ecp-2",
     "0x1.59e835c203fb6p-25 0x1.6b2f99f623fd5p-25 0x1.8ed6c8fb3b74ap-56 0x1.b7ae1adc1a7c6p-56 0x1.670000901e0f9p-25 0x1.a9deb9cbe6c54p-2",
     ),
)


def _hex(values) -> str:
    return " ".join(float.hex(float(x)) for x in values)


@pytest.mark.parametrize("r", range(len(_PINNED)))
def test_the_float_chain_keeps_its_bits(r):
    ps_dbm, draw, *modes = _PINNED[r]
    point = replace(load_scenario({"paper_defaults": True}), ps_dbm=ps_dbm)
    real = draw_channels(point, np.random.default_rng(np.random.SeedSequence((26, r, 1))))
    assert _hex([real.h0.real, real.h0.imag, real.hst.real, real.hst.imag, real.htr.real,
                 real.htr.imag, real.h1.real, real.h1.imag, real.p0, real.p1,
                 real.htr_abs2]) == draw
    for mode, want in zip((LNA, NO_LNA), modes):
        moments = hypothesis_moments(point, real, mode)
        threshold = near_optimal_threshold(moments)
        assert _hex([*moments, threshold, ber_closed_form(moments, threshold)]) == want
