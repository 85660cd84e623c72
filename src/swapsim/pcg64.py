"""NumPy's ``default_rng(seed)`` uniform and normal draws, on the standard library.

A Fourier model's 20 coefficients are fixed by its seed, and their bytes are
pinned.  ``PCG64(seed)`` reproduces, bit for bit, what
``numpy.random.default_rng(seed)`` gives for the two draws the model takes:
``uniform(low, high)`` and ``normal()``, one value per call, in
the order NumPy fills an array.  The stream is then frozen here, and no
swapsim command loads ``numpy.random``, whose ``Generator`` stream NumPy
does not promise to keep (NEP 19).

The parts are NumPy's: ``SeedSequence`` with a pool of four 32-bit words,
PCG64 with the XSL-RR output (O'Neill, HMC-CS-2014-0905, 2014), 53-bit
doubles, and the 256-layer ziggurat of ``random_standard_normal`` with its
tables, copied from NumPy's ``distributions.c`` and kept below under
NumPy's notice.
"""

from __future__ import annotations

import math
import struct

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# right edge of the ziggurat's base layer, and its inverse
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596


def _seed_words(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``: the four 64-bit words PCG64 seeds from."""
    entropy = [seed & _MASK32]  # the seed's 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []  # eight 32-bit words, paired low word first into four 64-bit ones
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    return tuple(low | high << 32 for low, high in zip(state[0::2], state[1::2]))


class PCG64:
    """``numpy.random.default_rng(seed)``'s stream: raw words, uniforms and normals."""

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        w0, w1, w2, w3 = _seed_words(seed)
        self._inc = (((w2 << 64 | w3) << 1) | 1) & _MASK128
        self._state = 0
        self.next64()
        self._state = (self._state + (w0 << 64 | w1)) & _MASK128
        self.next64()

    def next64(self) -> int:
        """Step the 128-bit LCG, then the XSL-RR output of the new state."""
        self._state = state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        word, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def random(self) -> float:
        """A double on [0, 1) from the top 53 bits of one word."""
        return (self.next64() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self) -> float:
        """NumPy's ziggurat: layer and sign from a word's low 9 bits, magnitude from the next 52.

        ``0.0 + x`` turns a -0.0 into 0.0, as NumPy's ``loc + scale * z`` does.
        """
        while True:
            r = self.next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * _WI[idx]
            if r & 0x1:
                x = -x
            if rabs < _KI[idx]:
                return 0.0 + x  # inside the layer's rectangle: most draws end here
            if idx == 0:  # the tail beyond _NOR_R, by Marsaglia's exponential test
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if (rabs >> 8) & 0x1 else _NOR_R + xx
            elif (_FI[idx - 1] - _FI[idx]) * self.random() + _FI[idx] < math.exp(-0.5 * x * x):
                return 0.0 + x  # in the wedge between the rectangle and the curve


# NumPy's ziggurat tables fi_double, wi_double and ki_double, in that order,
# each 256 little-endian 8-byte entries, as the .rodata of
# numpy/random/lib/libnpyrandom.a's distributions.c.o holds them.  They and
# the algorithms above are reproduced under the following notice.
#
# Copyright (c) 2019 Kevin Sheppard. All rights reserved.
#
# This software is dual-licensed under the The University of Illinois/NCSA
# Open Source License (NCSA) and The 3-Clause BSD License.
#
# NCSA Open Source License
#
# Developed by: Kevin Sheppard (<kevin.sheppard@economics.ox.ac.uk>,
# <kevin.k.sheppard@gmail.com>)
# [http://www.kevinsheppard.com](http://www.kevinsheppard.com)
#
# Permission is hereby granted, free of charge, to any person obtaining a copy of
# this software and associated documentation files (the "Software"), to deal with
# the Software without restriction, including without limitation the rights to
# use, copy, modify, merge, publish, distribute, sublicense, and/or sell copies
# of the Software, and to permit persons to whom the Software is furnished to do
# so, subject to the following conditions:
#
# Redistributions of source code must retain the above copyright notice, this
# list of conditions and the following disclaimers.
#
# Redistributions in binary form must reproduce the above copyright notice, this
# list of conditions and the following disclaimers in the documentation and/or
# other materials provided with the distribution.
#
# Neither the names of Kevin Sheppard, nor the names of any contributors may be
# used to endorse or promote products derived from this Software without specific
# prior written permission.
#
# THE SOFTWARE IS PROVIDED "AS IS", WITHOUT WARRANTY OF ANY KIND, EXPRESS OR
# IMPLIED, INCLUDING BUT NOT LIMITED TO THE WARRANTIES OF MERCHANTABILITY,
# FITNESS FOR A PARTICULAR PURPOSE AND NONINFRINGEMENT. IN NO EVENT SHALL THE
# CONTRIBUTORS OR COPYRIGHT HOLDERS BE LIABLE FOR ANY CLAIM, DAMAGES OR OTHER
# LIABILITY, WHETHER IN AN ACTION OF CONTRACT, TORT OR OTHERWISE, ARISING FROM,
# OUT OF OR IN CONNECTION WITH THE SOFTWARE OR THE USE OR OTHER DEALINGS WITH
# THE SOFTWARE.
#
# 3-Clause BSD License
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are met:
#
# 1. Redistributions of source code must retain the above copyright notice,
#    this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above copyright notice,
#    this list of conditions and the following disclaimer in the documentation
#    and/or other materials provided with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its contributors
#    may be used to endorse or promote products derived from this software
#    without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
# AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
# IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
# ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER OR CONTRIBUTORS BE
# LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
# CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
# SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
# INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
# CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
# ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF
# THE POSSIBILITY OF SUCH DAMAGE.
_TABLES = bytes.fromhex(
    "000000000000f03f87f079c96a44ef3f15a96c5b54b7ee3f77f027e0113fee3f"
    "95de04a76fd3ed3ff2bc57069270ed3fdc19a1784914ed3feb2da7a833bdec3f"
    "7f78a9ce5e6aec3feabaeed91c1bec3f82dce14eebceeb3f52f58f3a6585eb3f"
    "10dd34823a3eeb3fa2e86c3f2af9ea3f04257af1feb5ea3fe1c950d58b74ea3f"
    "0faff5fdaa34ea3fd81f65ee3bf6e93f8106248d22b9e93fc17a6157467de93f"
    "477a1bc29142e93f4f7131bdf108e93fa80ae64f55d0e83f02dfba48ad98e83f"
    "acbc37fceb61e83f6ecf560f052ce83fcbe2204bedf6e73f58689c779ac2e73f"
    "d5b0a03c038fe73f56d870071f5ce73f126d3ff4e529e73fee7aeaba50f8e63f"
    "895a639e58c7e63f2a3b515ef796e63f23e3922a2767e63f180c5598e237e63f"
    "652680982409e63f6aff4a6fe8dae53f895cc8ac29ade53f8f8d4c26e47fe53f"
    "469e8df01353e53fd56c655ab526e53f67b620e8c4fae43fc04e494f3fcfe43f"
    "7852dc7221a4e43f1250df5f6879e43f7936494a114fe43fe35f358a1925e43f"
    "825b58997efbe33fa331af103ed2e33f0ecd62a655a9e33fd500da2bc380e33f"
    "e950f58b8458e33f353a70c99730e33fef3864fdfa08e33fee3bea55ace1e23f"
    "4a95d714aabae23f15cd938ef293e23fed040529846de23f84db905a5d47e23f"
    "f2f72fa97c21e23f209692a9e0fbe13f699954fe87d6e13f11d13f5771b1e13f"
    "503c9b709b8ce13fda3986120568e13f9ca95e10ad43e13f381f3148921fe13f"
    "135932a2b3fbe03fa042411010d8e03faed9708da6b4e03f815d991d7691e03f"
    "363cf0cc7d6ee03f2e3fa6afbc4be03f2a828be13129e03fc4cab885dc06e03f"
    "a1bd7b8c77c9df3fca00a9a79d85df3ff37a2fcb2942df3f958f7e711affde3f"
    "541fbd206ebcde3fc5c34e6a237ade3f859b5fea3838de3f093a7647adf6dd3f"
    "b1560b327fb5dd3f33de2664ad74dd3f801002a13634dd3f6d5baeb419f4dc3f"
    "48a8c07355b4dc3fc7d700bbe874dc3fb82c1d6fd235dc3f176a617c11f7db3f"
    "916d71d6a4b8db3f1b1307788b7adb3fca31b362c43cdb3f5285a19e4effda3f"
    "9e5a5f3a29c2da3f80d8a44a5385da3f4dc020eacb48da3f3e844639920cda3f"
    "df931e5ea5d0d93fc6c018840495d93f939fe0dbae59d93f17cb339ba31ed93f"
    "15f1b9fce1e3d83f8891de3f69a9d83fb65aaca8386fd83fd90daa7f4f35d83f"
    "11d9b811adfbd73fb014f4af50c2d73feb5292af3989d73fedb1c7696750d73f"
    "4c61a93bd917d73faa4c12868edfd63f21de88ad86a7d63fe2cb251ac16fd63f"
    "15e57b373d38d63fc8d28074fa00d63f44c27643f8c9d53fbeeed6193693d53f"
    "00013d70b35cd53fed3b53c26f26d53f926dbf8e6af0d43fa29c1057a3bad43f"
    "d46aad9f1985d43ffe24c3efcc4fd43f197a35d1bc1ad43fdbd28ed0e8e5d33f"
    "ae43f17c50b1d33f79130868f37cd33f9ed1f925d148d33f2ff65a4de914d33f"
    "660721773be1d23fdd3f963ec7add23f1eb14d418c7ad23f89de171f8a47d23f"
    "9eccf779c014d23f168118f62ee2d13f50f0c239d5afd13fe85454edb27dd13f"
    "67ee34bbc74bd13f2324cf4f131ad13fc409875995e8d03fda42b2884db7d03f"
    "3643908f3b86d03fd9e942225f55d03f7e74c7f6b724d03fc593df898be8cf3f"
    "3532b88c1088cf3fd298e96cfe27cf3f449cc9a454c8ce3fdd3c28b21269ce3f"
    "84714516380ace3f0a90c755c4abcd3f4f51b2f8b64dcd3fcc6f5e8a0ff0cc3f"
    "53df7199cd92cc3f479dd8b7f035cc3fa118be7a78d9cb3faa31877a647dcb3f"
    "3ad1cc52b421cb3f071857a267c6ca3f7e26190b7e6bca3f3d7e2d32f710ca3f"
    "5afed2bfd2b6c93f277c6a5f105dc93f69fa74bfaf03c93f5b819291b0aac83f"
    "389a818a1252c83f75711f62d5f9c73f23a368d3f8a1c73fa6b57a9c7c4ac73f"
    "1647967e60f3c63f5cf2213ea49cc63f9cf1ada24746c63ff983f8764af0c53f"
    "6c1df388ac9ac53f3568c8a96d45c53fc11fe3ad8df0c43f2dcef56c0c9cc43f"
    "d57503c2e947c43fae31698b25f4c33feed7e8aabfa0c33f88abb405b84dc33f"
    "652a7c840efbc23f1a077a13c3a8c23fb75e83a2d556c23f343c18254605c23f"
    "427d759214b4c13f632da8e54063c13fb96ea21dcb12c13fba09523db3c2c03f"
    "85bfb84bf972c03f2a7d06549d23c03f2c226bcb3ea9bf3f1c0e5229ff0bbf3f"
    "4ba59af27b6fbe3f8fe87661b5d3bd3fe591bdb9ab38bd3f0a743b495f9ebc3f"
    "15100b68d004bc3f33e2f278ff6bbb3f33f6cae9ecd3ba3f8662ea33993cba3f"
    "195b9ddc04a6b93faba0a4753010b93f5228bf9d1c7bb83fd6ef3e01cae6b73f"
    "7611aa5a3953b73f4c4a69736bc0b63f184d8524612eb63fa46674571b9db53f"
    "ae2bfa069b0cb53f13221b40e17cb43f869a2623efedb33f703ed9e4c55fb33f"
    "11319bcf66d2b23f910ddd44d345b23f7d8997be0cbab13f9d17f2d0142fb13f"
    "2596152ceda4b03f97e4309e971bb03f356e6c2b2c26af3f8151b247d516ae3f"
    "62f1adfe2e09ad3f2c2a280f3efdab3f705f389007f3aa3f635529f990eaa93f"
    "abb5682ae0e3a83f1e27af77fbdea73f64d098b3e9dba63fd4adf23cb2daa53f"
    "5d27110e5ddba43fcbee98cef2dda33f97f43de87ce2a23fbc6a1f9f05e9a13f"
    "1180962e98f1a03fc4a518d781f89f3f758c82db1a129e3f1a09cd8319309c3f"
    "f8eb224e9f529a3f0ac100b6d179983f82bf0bf4daa5963f64b0fbf2ead6943f"
    "135eab8d380d933f123060340349913f49dd724f2a158f3fac8f4f278da48b3f"
    "78a48d0d0441883fe0cf1a4296eb843f922f952992a5813f3768ecf860e17c3f"
    "5db80cd9a89e763ffdb1b0031f8a703f67b0c1439f5f653f0ff7b9b605a6543f"
    "79d915783b49cf3cc6f6fde30b8d8b3cb45b2c3caf50923c613b4438b97c953c"
    "0ca72fe8fc01983cbcd04c2e0c239a3cf761382f4d009c3c7472745a2fac9d3c"
    "c3d54c2d48329f3cadbb8e27324da03c435d023b05f5a03c77364197a692a13c"
    "f51a7a8fa227a23c80d863382eb5a23cf59157c03f3ca33c2fb1a2c19ebda33c"
    "559bff8def39a43ca7fe3d36bbb1a43c74d31a627525a53c96ce07a78095a53c"
    "ea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c"
    "772ab310ad98a73c43f546ad45f8a73c770a4353cc55a83c9a767b9e64b1a83c"
    "98cf4ea92e0ba93cea1e2c824763a93c46c5388ec9b9a93c2ca7a4dccc0eaa3c"
    "59cd776d6762aa3c3016106eadb4aa3c9c6c136db105ab3c297a42878455ab3c"
    "3a9f528e36a4ab3c3282bf2ad6f1ab3cf34e59f9703eac3c613b32a5138aac3c"
    "8b2672fec9d4ac3c48b7800e9f1ead3c101fe4299d67ad3cc3b82300ceafad3c"
    "5376f1a93af7ad3cfeedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c"
    "2662f084e70daf3c88f6d854f651af3caed7879e6d95af3cac2efa7d53d8af3c"
    "ec3442e0560db03c9a8f39f5402eb03cfca5169eea4eb03c10a0725b566fb03c"
    "0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c6b08164bc8eeb03c"
    "ee159532200eb13cbe0f3107472db13c41918e9f3e4cb13c1e20c4bf086bb13c"
    "34da781aa789b13c886dee511ba8b13ccb2af8f866c6b13c2ed4e0938be4b13c"
    "9fa040998a02b23ce9c6c4726520b23c1fc3e97d1d3eb23cfb6ba90cb45bb23c"
    "7fd31d662a79b23c1bd719c78196b23cda2eb862bbb3b23c53b8e162d8d0b23c"
    "8ea9cbe8d9edb23cd7486e0dc10ab33c30b9f4e18e27b33ca15e26704444b33c"
    "d552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33c"
    "e01d569886d2b33c835a72debeeeb33c749ee071e50ab43c5d74a62dfb26b43c"
    "a4303ce80043b43c5dc7ca73f75eb43c36c3669edf7ab43c2f8f4832ba96b43c"
    "5d4102f687b2b43cdc11b3ac49ceb43c05a6381600eab43c62555eefab05b53c"
    "5a8b0af24d21b53c4f666ad5e63cb53cc8b21b4e7758b53c785f550e0074b53c"
    "14850ec6818fb53c591b2423fdaab53c3d737dd172c6b53cd38c2f7be3e1b53c"
    "385e9fc84ffdb53cc31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c"
    "7296c957e26ab63c3731b1834286b63cb1b25029a2a1b63cbb43b3e801bdb63c"
    "52d3286162d8b63c54f86131c4f3b63ceb688bf7270fb73cc61469518e2ab73c"
    "dcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c93bdbac84d98b73c"
    "09148b3ccab3b73cfb22dbf34ccfb73ce7de738cd6eab73c1fea86a46706b83c"
    "7686c8da0022b83c159f89cea23db83cbdf5d11f4e59b83cc57e7a6f0375b83c"
    "2df7475fc390b83c43c005928eacb83c9c0ca1ab65c8b83c276a445149e4b83c"
    "8fb573293a00b93c478328dc381cb93cfc0aef124638b93c8aa203796254b93c"
    "eed570bb8e70b93c312a2e89cb8cb93cbf993f9319a9b93c2cd9d58c79c5b93c"
    "11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c"
    "88bb0b9e7f54ba3ca4a94a725a71ba3c3d31a0644c8eba3c08f19f3e56abba3c"
    "cef55acd78c8ba3c36b38be1b4e5ba3c1aa1c34f0b03bb3c5b989af07c20bb3c"
    "000ce0a00a3ebb3c033dce41b55bbb3c27893fb97d79bb3c3cf7e5f16497bb3c"
    "6e2585db6bb5bb3ca2c02e6b93d3bb3c83ae819bdcf1bb3ca016ec6c4810bc3c"
    "2d7af0e5d72ebc3c1c0d6e138c4dbc3c0587ec08666cbc3c17a6ebe0668bbc3c"
    "aba236bd8faabc3c90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c"
    "20ef3710db28bd3c47c63315de48bd3c23f1e7961069bd3ca5fbd7f47389bd3c"
    "706e209909aabd3c0e49fcf8d2cabd3c372e5295d1ebbd3c1cd249fb060dbe3c"
    "f646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c0abf2a4b2194be3c"
    "086ff7c081b6be3c3aa7107623d9be3ca9ec016108fcbe3c2153c28a321fbf3c"
    "6d4db70fa442bf3c6801c9205f66bf3c82978904668abf3cbf227118bbaebf3c"
    "85e72fd260d3bf3c0bf618c159f8bf3c75a0d347d40ec03c47c98f02a821c03c"
    "ab02a983a934c03cc7f53e4eda47c03c7eb3adf63b5bc03c6826a723d06ec03c"
    "172e638f9882c03c54a2e8089796c03cc4c07175cdaac03c48d4eed13dbfc03c"
    "303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c"
    "355dbb9b2129c13c6d09c4691d3fc13c3b2e60486455c13cf3ee9d3bf96bc13c"
    "6112d274df82c13caceb4e561a9ac13c8e2f7f77adb1c13c94a671a99cc9c13c"
    "39aee4fbebe1c13c01d9e2c29ffac13c81cc049dbc13c23ceed36f7a472dc23c"
    "249caca44547c23ce05876c7bc61c23c2e59a8fab27cc23c780e77cd2e98c23c"
    "520a2a5337b4c23c97db9631d4d0c23cf578a9b10deec23ceeae56d2ec0bc33c"
    "a3a4685e7b2ac33ca312ae05c449c33c40a8337ad269c33c0a415692b38ac33c"
    "fa88ae7075acc33ca60417b327cfc33c75f460aadbf2c33cdae5b99ca417c43c"
    "945e5415983dc43c153aa744ce64c43cbc439c75628dc43c275a6b9d73b7c43c"
    "0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c1be44aa9b171c53c"
    "d98d718bc0a5c53cfed03a248adcc53c4c1e86cf6916c63cea6a007bce53c63c"
    "c3e59fbe4095c63c32e2098d6bdbc63c347a5ff02827c73c730609569579c73c"
    "8cced6f42dd4c73c34f229050339c83c147caabf0fabc83c96446f94e02ec93c"
    "ab574001eecbc93c5a779478dc8fca3cb1fd78381f98cb3c33ad0982b43bcd3c"
    "6aef25803df30e000000000000000000a8c6fb98be080c004281bdfa54a30d00"
    "eaeec17ef6510e007ef7d3e955b20e00b9ca7e814bef0e00aa44fa0a47190f00"
    "18cbff61ed370f005c256195464f0f0096a31be4a5610f00a49653757a700f00"
    "9a4428ecb27c0f00d357630cf1860f00de258357a68f0f00dad04dc724970f00"
    "09f5db07a99d0f0074fa81f560a30f00f84b5bde6fa80f00dc54d360f1ac0f00"
    "0fb91867fbb00f00c674538d9fb40f0077fe6623ecb70f000ee5a1e9ecba0f00"
    "ed0b049dabbd0f00576cff6030c00f0048a2371082c20f00d15be27aa6c40f00"
    "31ee7a97a2c60f00a49628a97ac80f0085de4b5e32ca0f001a2302e9cccb0f00"
    "c439f8124dcd0f0099ec8f4db5ce0f0030c91dbf07d00f00e6c4d64d46d10f00"
    "50f4e2a872d20f001ec9f04f8ed30f0078b490999ad40f00530f92b898d50f00"
    "ec998ec089d60f0032e8c8a96ed70f00e8087b5448d80f008c2cad8b17d90f00"
    "d2ada707ddd90f008c5e107099da0f00202ec05d4ddb0f00d0fc5b5cf9db0f00"
    "7d9ab9eb9ddc0f009d7218813bdd0f00902f3488d2dd0f00649f366463de0f00"
    "4e518d70eede0f002eb4a60174df0f0040ed9965f4df0f00f224bce46fe00f00"
    "58a225c2e6e00f004cb8283c59e10f00993fbc8cc7e10f00aa1cdbe931e20f00"
    "911bda8598e20f008641b58ffbe20f004a8d55335be30f002a00d099b7e30f00"
    "7fad9ee910e40f003477d44667e40f005c094cd3bae40f002495d2ae0be50f00"
    "78bc4ef759e50f001212e4c8a5e50f008986133eefe50f007810d96f36e60f00"
    "78d5c6757be60f00aa111e66bee60f00f2f4e555ffe60f0002a700593ee70f00"
    "399e3e827be70f00a27070e3b6e70f004342778df0e70f008cf0539028e80f00"
    "3a1735fb5ee80f00640884dc93e80f00bccef041c7e80f00f64e7d38f9e80f00"
    "1d9b87cc29e90f00ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00"
    "d5b69426dfe90f007ce6ab7309ea0f00a466f19c32ea0f002c9532ab5aea0f00"
    "1a74d5a681ea0f00f01cde97a7ea0f0020d9f385ccea0f003ce66578f0ea0f00"
    "13ec2f7613eb0f004a2afe8535eb0f00b46231ae56eb0f00fa84e2f476eb0f00"
    "1420e65f96eb0f007c9dcff4b4eb0f00d049f4b8d2eb0f003e2e6eb1efeb0f00"
    "e8bd1ee30bec0f00155ab15227ec0f00d3af9d0442ec0f0096f129fd5bec0f00"
    "f4ee6c4075ec0f00b40c50d28dec0f00121f91b6a5ec0f00fe27c4f0bcec0f00"
    "15fb5484d3ec0f00b3c88874e9ec0f00b7917fc4feec0f002885357713ed0f00"
    "0349848f27ed0f004c2f24103bed0f006e58adfb4ded0f00ddc3985460ed0f00"
    "e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f0004b7852ba4ed0f00"
    "b46a74c8b3ed0f00526641dfc2ed0f00526ea471d1ed0f00d38a3c81dfed0f00"
    "8099900feded0f0014d40f1efaed0f00c44b12ae06ee0f00065ad9c012ee0f00"
    "e00690571eee0f0024654b7329ee0f00bce40a1534ee0f003c9bb83d3eee0f00"
    "f48229ee47ee0f0086b01d2751ee0f00417f40e959ee0f002eb4283562ee0f00"
    "f197580b6aee0f007a073e6c71ee0f00827b325878ee0f00ba067bcf7eee0f00"
    "b24a48d284ee0f004363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00"
    "ea29a85198ee0f005c48130e9cee0f00f47372559fee0f00aecc6227a2ee0f00"
    "ac426b83a4ee0f00712dfc68a6ee0f00fad66ed7a7ee0f000afa04cea8ee0f00"
    "3b33e84ba9ee0f0010642950a9ee0f005e07c0d9a8ee0f00547689e7a7ee0f00"
    "241d4878a6ee0f00839ea28aa4ee0f00dae4221da2ee0f002420352e9fee0f00"
    "2eaf26bc9bee0f00e4f224c597ee0f003a0a3c4793ee0f00167555408eee0f00"
    "7a9c36ae88ee0f00fd3d7f8e82ee0f0088b8a7de7bee0f00ff37ff9b74ee0f00"
    "5ebda9c36cee0f007e009e5264ee0f008828a3455bee0f00b6574e9951ee0f00"
    "cf06004a47ee0f00502ce1533cee0f00d82ae0b230ee0f000582ad6224ee0f00"
    "5a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f006c2176eaebed0f00"
    "7e0422e4dbed0f00d339ce0ecbed0f00f42c0464b9ed0f00c938e9dca6ed0f00"
    "8de9377293ed0f0036a8381c7fed0f002bc0b9d269ed0f0000ae068d53ed0f00"
    "22a4de413ced0f00d82f6ae723ed0f0044e62f730aed0f0034fe07daefec0f00"
    "b8b70e10d4ec0f00b46e9508b7ec0f00c13012b698ec0f0078a90d0a79ec0f00"
    "fe310ff557ec0f0062c9866635ec0f0035b3b44c11ec0f00d06f8e94ebeb0f00"
    "92b6a029c4eb0f00dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f00"
    "4b2d0bb013eb0f00e9021a59e2ea0f00572299aeaeea0f0026e38e8d78ea0f00"
    "e573fdcf3fea0f00f6d98d4c04ea0f003b562fd6c5e90f00a447a93b84e90f00"
    "28471d473fe90f00d6c576bdf6e80f00e6e8c45daae80f00eab17ae059e80f00"
    "40a990f604e80f00c0338248abe70f00a56a1f754ce70f0002a22a10e8e60f00"
    "d8abb6a07de60f007e30389f0ce60f0042f7387394e50f008072977014e50f00"
    "58f436d48be40f00371efdbff9e30f009cb1ee355de30f00fee42f12b5e20f00"
    "5755990300e20f00148378823ce10f00b067eec468e00f00aa712bb082df0f00"
    "aafe7ec587de0f00fd3bc60975dd0f0013bf29e546dc0f0082022ef8f8da0f00"
    "75bab2e185d90f0004cf48efe6d70f000b65bdad13d60f0012f0e24901d40f00"
    "acc7b4a7a1d10f009e1f7604e2ce0f00b2115ed8a8cb0f00222dcd6ed2c70f00"
    "ed221e2f2bc30f003ab8c08165bd0f00345400c406b60f0074282a5840ac0f00"
    "9845011e979e0f00fc1da448fa890f002c30f0f7c5660f004a1c334b5a1a0f00"
)
_FI = struct.unpack_from("<256d", _TABLES, 0)
_WI = struct.unpack_from("<256d", _TABLES, 2048)
_KI = struct.unpack_from("<256Q", _TABLES, 4096)
