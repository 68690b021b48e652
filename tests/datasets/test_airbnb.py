"""Tests for the synthetic Airbnb dataset (Table 3's input)."""

from __future__ import annotations

import gc
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import tone
from repro.datasets import airbnb

_MB = 1024 * 1024


class TestShape:
    def test_33_cities(self):
        assert len(airbnb.CITIES) == 33
        assert len(set(airbnb.CITIES)) == 33

    def test_total_size_is_1_9_gb(self):
        sizes = airbnb.city_sizes()
        assert sum(sizes.values()) == airbnb.TOTAL_SIZE == 1_900_000_000

    def test_sizes_variable_with_heavy_head(self):
        """'Each city dataset has variable size.'"""
        sizes = airbnb.city_sizes()
        assert max(sizes.values()) > 5 * min(sizes.values())
        assert sizes["new-york"] == max(sizes.values())

    def test_scaled_total(self):
        sizes = airbnb.city_sizes(total_size=1_000_000)
        assert sum(sizes.values()) == 1_000_000

    @pytest.mark.parametrize(
        "chunk_mb,paper_count",
        [(64, 47), (32, 72), (16, 129), (8, 242), (4, 471), (2, 923)],
    )
    def test_partition_counts_match_table3(self, chunk_mb, paper_count):
        """Table 3's concurrency column, within a few executors."""
        chunk = chunk_mb * 1024 * 1024
        count = sum(-(-s // chunk) for s in airbnb.city_sizes().values())
        assert abs(count - paper_count) / paper_count < 0.06

    def test_all_cities_have_coords(self):
        for city in airbnb.CITIES:
            lat, lon = airbnb.CITY_COORDS[city]
            assert -90 <= lat <= 90
            assert -180 <= lon <= 180


class TestContent:
    def test_deterministic(self):
        fn = airbnb.make_review_content_fn("paris")
        assert fn(0, 500) == airbnb.make_review_content_fn("paris")(0, 500)

    def test_cities_differ(self):
        a = airbnb.make_review_content_fn("paris")(0, 500)
        b = airbnb.make_review_content_fn("rome")(0, 500)
        assert a != b

    def test_subrange_consistency(self):
        fn = airbnb.make_review_content_fn("berlin")
        whole = fn(0, 20_000)
        assert fn(5_000, 12_345) == whole[5_000:12_345]

    def test_lines_are_csv_reviews(self):
        fn = airbnb.make_review_content_fn("london")
        lines = fn(0, 8192).decode("ascii").split("\n")
        complete = [l for l in lines[:-1] if l]
        assert len(complete) >= 5
        for line in complete:
            lat_s, lon_s, text = line.split(",", 2)
            lat, lon = float(lat_s), float(lon_s)
            # points jitter around the city center
            assert abs(lat - airbnb.CITY_COORDS["london"][0]) < 0.2
            assert abs(lon - airbnb.CITY_COORDS["london"][1]) < 0.2
            assert len(text.split()) >= 10

    def test_average_line_near_paper_comment_size(self):
        """1.9 GB / 3,695,107 comments ~= 514 bytes per comment."""
        data = airbnb.make_review_content_fn("madrid")(0, 65536)
        n_lines = data.count(b"\n")
        avg = len(data) / n_lines
        assert 380 <= avg <= 650

    def test_positivity_varies_by_city(self):
        values = {airbnb.city_positivity(c) for c in airbnb.CITIES}
        assert len(values) > 10
        assert all(0.30 <= v <= 0.81 for v in values)


class TestLoad:
    def test_load_dataset_creates_virtual_objects(self, kernel):
        from repro.cos import CloudObjectStorage

        store = CloudObjectStorage(kernel)
        loaded = airbnb.load_dataset(store, total_size=33_000)
        assert len(loaded) == 33
        keys = store.list_keys(airbnb.DEFAULT_BUCKET)
        assert all(k.startswith("reviews/") and k.endswith(".csv") for k in keys)
        obj = store.get_object(airbnb.DEFAULT_BUCKET, keys[0])
        assert obj.is_virtual
        assert obj.metadata["city"] in airbnb.CITIES


# ---------------------------------------------------------------------------
# The byte contract: a block is a fixed function of (city, block index)
# ---------------------------------------------------------------------------


def _reference_review_line(
    rng: random.Random, lat: float, lon: float, positivity: float
) -> bytes:
    """One CSV review line drawn through ``random.Random``'s own methods."""
    point_lat = lat + rng.uniform(-0.12, 0.12)
    point_lon = lon + rng.uniform(-0.12, 0.12)
    happy = rng.random() < positivity
    words = []
    for _ in range(rng.randint(35, 90)):
        roll = rng.random()
        if roll < 0.25:
            pool = airbnb.POSITIVE_WORDS if happy else airbnb.NEGATIVE_WORDS
        elif roll < 0.35:
            pool = airbnb.NEGATIVE_WORDS if happy else airbnb.POSITIVE_WORDS
        else:
            pool = airbnb.NEUTRAL_WORDS
        words.append(rng.choice(pool))
    text = " ".join(words)
    return f"{point_lat:.5f},{point_lon:.5f},{text}\n".encode("ascii")


def _reference_block(city: str, index: int) -> bytes:
    """Block ``index`` of ``city``'s object, one ``_reference_review_line``
    call per line."""
    lat, lon = airbnb.CITY_COORDS[city]
    positivity = airbnb.city_positivity(city)
    digest = hashlib.sha256(f"airbnb:{city}:{index}".encode()).digest()
    rng = random.Random(digest)
    out = bytearray()
    while len(out) < 4096:
        out += _reference_review_line(rng, lat, lon, positivity)
    return bytes(out[:4096])


#: ``city start sha256(content(start, start + 16384))`` at start 0, 2 MiB,
#: the city's last 2 MiB chunk start and an unaligned 12,345
_PINNED_SAMPLES = """
new-york 0 64410eb2052f45901fd326a3fb62287cd0bec23b5997af76421687f72d189eaf
new-york 2097152 71e753dc7e6013a7f3a9adc60c263cfad10e6e795fd9797218586e450750174f
new-york 174063616 47f87b1ff2bf92e005af582f59dab9c2a72a28400c3d19d42735b24704260ae9
new-york 12345 e547cbdedb5711b4b855ccdc58ee7aa3a13d3bff212914bf75887ed92a77ee18
paris 0 6bd1a5cba66711be5196c595476e2f8bbbcfdce576bb79a3cc332be74933a390
paris 2097152 823baba1971e46a226910592c5734f67bc7d25a17ec8745460ef2e79c0e5ab00
paris 157286400 aed92099c48834f0e2d6ff1f7459a85cb00ce980e4453ca8a4c0df5be8136f91
paris 12345 db1578c41a6610f516be38055da8e158ec3ca32d5496938d9afb8cf2d1627650
london 0 394d3d66bc7f78ab7a77b7cbd966b1984e1f2c523d4d151b081593859846747d
london 2097152 0e50ee5f543bb909b76a60b9fd74a574014b258c1911758dfa532b6c3c107751
london 146800640 ec296f8bc11fd9ac98919c6277296f4bc5b77f41ce8914bb0bc8b5280e44ccac
london 12345 ad1a6f54eea944ce4f3cdca81a694f4d35e6c65a9ecae204141787e07369fced
los-angeles 0 fc8ef6ded69c632f713a514e459c965297c714b8f0a8bd08785581d3317e8183
los-angeles 2097152 51605adaf0a2c7471f61b9860d9051ba44f6a516b4f9c50d2037693b7008970e
los-angeles 113246208 4391129f28783ea060594d57490472fe4e5f7efd74a865df4fb62a376deadc11
los-angeles 12345 dd6a5af012b07531b1745288d0ce73ebf5ad134389fe2fbd44817ce9ed0a7077
rome 0 b3a6d0e9dbbf1440208e7513d63d3f87a70578279928aba45ee18d4c356771e1
rome 2097152 3760190e6520ca0137a3a0cf6409d3d900b80f8739d92cabdc2a5bd3eea90890
rome 94371840 ec9b9733847262995c33af8d4b3a695a54d5f3d2108bc26fbfe3258a0412f4d3
rome 12345 61f1dbc3bc57c144348121354d6f0ae662feb9715515a9d2e2db7b1fddfbb58b
barcelona 0 1410ccccdee53eda7b02e6e339443e65ab728b8453fdbf57c89e0f25ce906b97
barcelona 2097152 8eecf5f03cc8d50d08a804c78a9ae56d09c28aca5c7fd364a8b0b34c9341ab96
barcelona 85983232 e9140170264d87185aa806aa14a85056f304ad9d3155852aaccb14dd11260670
barcelona 12345 a03850eab053156da160da2b6a83f9436b9d3d7fa7e2b78f6850e4156e45e396
amsterdam 0 82bb40f6cd06381cd08b76c4bd6dc2a45b7f8aa7aa137fabc9adcc11e8698627
amsterdam 2097152 0b349ba23a1657019f6d251304fdb8c2d756344e2fb8f97d5ab6e20df5779943
amsterdam 77594624 7e1b27e38db1f8f1c3b73698bcf2f29405528f75d1a0dfb196e06bf384d8e6ff
amsterdam 12345 2ab5686c51d4cb641060ca486b9fcdd2dd2594c30e9f51052e9a3746e622a795
berlin 0 a9cb17380d805d4c7792ff6fc2a4559ff9122f7225f9bfdee85e10af47567051
berlin 2097152 614624e6f5cd384c9e7386c5961676caa8d6f3c58709d00aafb0d7bc1fac6863
berlin 73400320 058387a2d8837da0a87df10bf0782c6a5d78c386eafd4243b40c2e61111ef6c1
berlin 12345 12788b38f81b79db76730bd9da484223b7b89ed2eafb36d897c3c6bf29384577
sydney 0 3fe27f7b921d944cbf75777c8b9b9873371f971cb93394fd80ea5100a837b66a
sydney 2097152 ef16a1c6ad3d15aa6566750c81bc2a2105444f63cfb72a6aced277acfc70aaf9
sydney 69206016 a7a52515cd1b35875e21da7f194370847f182507bb73b51f94b05dc0aa00ad3f
sydney 12345 cfa3b14f1be43e441cc266e58dc362f8bbd10b7ebde04f3959ad3c165b540fcc
toronto 0 94b36695054efdacc982069a3a672bdd66439ed9b029d828e499901373188f4d
toronto 2097152 c14804263e276d1431958a1489c2ebb2a2ceb3f3f8f1c786eeefa0463125504a
toronto 65011712 93cdff243dab1a3ec9cccdec92ccfe70462197ef4adad151d3cecf7fe4e3bcc5
toronto 12345 3203861897ac7e655a9ce7a135c9e6baa7c27cb3f88b666732665d8f145736df
san-francisco 0 91e5600ec49f3674b952118d6bee06e597b4092dbc5595a8bbf281b7016fd488
san-francisco 2097152 59653b41754b7075a0c627ceb0084831c20bf688c99eaae7098bd007c7532b9c
san-francisco 62914560 b3b6e913d0131ae0e485e9a03c91c6088781377fde6b7eebea97ec11a9241922
san-francisco 12345 6b6a795f4d43cae23196fb6dbfc88f9eff53536a5aa3dd3947a842805a33f839
madrid 0 b1d5c60773d74d78316e893e56253b053ace6875fed81c44383a28c9547b3cf8
madrid 2097152 60b70f79fc7a00b9797108b1997f9b15163650da5a9433ac893ac32f20f45009
madrid 58720256 b2fcf9690d6c463774fad13f0edef11387910fa19bbca125bd13071cb67ba06a
madrid 12345 2815f9a1ceba394121e9084d7343ac26a9a6e7dba8ef44c0a08e74aab96da158
melbourne 0 81116f037aad005c257c86cc6509311bbf988484a96f11abba9e33f0fea46120
melbourne 2097152 3d8d526c7ff37dd0f4a9f8861da92e13b38df9fd300876295463b19f405a16b2
melbourne 54525952 173d56d425bce183e6610f7c8c80600c405fd31d7ce287f1ea0f8d666a15203a
melbourne 12345 16abf58e1a1fa77b9c61ffb9b4409742adb0246c564e2337aaeb6684ce1a752e
chicago 0 53da741d73bc27d4b0cd15621321ee7b2e33cfbaf89be73c65db2bd17eb13ee2
chicago 2097152 0f9f1d7b2bdf27c52c2a73355052e18a0663cec73268526a48d1e271ab4ce6e3
chicago 52428800 68cbafa8c52d44f0c5ceacb46021ca1129549aaf2d829c9231e1b047814b058f
chicago 12345 e15d878309cfb1264701fcd9be60043ec41338549b2a846bd0a9edc0bb4cc812
austin 0 679711eb5ecc7238b202ce6c42f3c043dda8fd193498d07b34ce2e5f2e118c67
austin 2097152 c55a0d067c068234daf6e5f7381080cd3ecef2e7c1cd6fadcd8f169fb421b70f
austin 48234496 4191ea9df14c7445c1c10828a1a473e054d6369d8b6477630fd8ea7530d56fd2
austin 12345 5e35a5f8387829a444e7905c6b9cd306769f4fb2d229a14b98db82542c92caf9
vancouver 0 bde2e87a7ae50d36274efad652a9aa0407509d7bfed5ae31aa8c8a9deeaaf792
vancouver 2097152 35545512e36e4696c56e676cd70fbb1c44388e8c357a7180ff33be4edd348a92
vancouver 44040192 e3e4a01f833f4b9620d63f2a073ef685c39cd48d5283b4fdfbef06b666832016
vancouver 12345 1f81b171e16fe627d891c39a95f512ca48229a149e34aeb9a8e2145484ac2a20
lisbon 0 b6ad35e87056d66cfcdf72e32b3b9b1d77f3205ad4dd263b00da226f5ca69899
lisbon 2097152 7e3f536b4c28c23393cbea20d40a260630320f1eb33e8cffa2110a665d744d72
lisbon 41943040 6654965a443c5044ef96572e4853a766d43139b29e1941e5fec5cf15a5d03440
lisbon 12345 ea2fb87c384ca5954752b55c6d0f321e14f49b1cf1d85acd7fa0a3c4441f2727
copenhagen 0 9e5ae32aa6c7343c172f0ffc1f8f4bdddb338a8160b2f5554f0cdd2ff32f1fda
copenhagen 2097152 38ce721439eb9c9ebff93760241e834bfb3bfc0c8701dfeaf89a4fd4121ae896
copenhagen 41943040 1ee30da6f0d611e7551bf3b41e2ca01d9c1e6f96f7cf43462882bc1e144cfcc0
copenhagen 12345 a1e80fcc1c5073c47368ae5f41d72add356af837553291a57d4ac124deb4e9be
dublin 0 8de51565887d255fa293cd7652e06eabb92f4c89a75fa7e3f7cdf54ca2fab32c
dublin 2097152 a3cafa466a2984cade8ea759e71fb39810a7b4040e5b6830d996111e72433a3e
dublin 39845888 b1257bfbcb88526d9958c14688ed1a6606d4bf541efbebaf85300c95580d2ac4
dublin 12345 06fc6f7ccc72d3705c26a7a8e37295688d083d319da602751a8258a662aeb547
vienna 0 47d77c08914298f313bff11127ab4c25ef14c0049454f1dcb6c834146b65f380
vienna 2097152 afd7e12571e90b2ede4a61e1c41dedad8bcc7f8b494afe2ef0b4508f493e4cfe
vienna 37748736 c66ef971551cc51d14bee318dadb3fb96105dbb925c98217386fcad35f5fb00b
vienna 12345 10bb9cb94d7953f850e332de1dc74fbb839ea2c70a66ba81dd82ba8f3b1d304c
seattle 0 60e0bbd3d53775a30d3f6d02d58067754f56bf25864e788b5b39fd2e9c00e3a9
seattle 2097152 556740492a5750a574665ebb603840b5a74f6aeeb39b70f6087d08c4054078a4
seattle 35651584 6d2d0996a4b4524ec6f46457f24c576573984767c972901d598c114e85184462
seattle 12345 98f1f478f390082a690653dfeac5ab8d3b6c73513ce502fdf5c901007f9af02d
boston 0 4df35edb15ecc13917f4405c717982e291a46e231a6c29ba5c29364fba982897
boston 2097152 f60b1d446ad7f56797dbbf376f9bf9f40bbe59b5b4913fd6b9f33e163a820bc1
boston 33554432 9384e43e2791ac3f79292fdfce416f6abb53df5fb951a733eb1c767dc1eb3ae3
boston 12345 63129eeb685fe8087c6f19b1a603ca3a64c4aeac417cefe951fddfc225b9e4e9
washington 0 fdac316e372291a8a813af5a70ccaa9e594854eb6bfa0634a3e9627f0394055a
washington 2097152 d1d9fefea22febcfbbf3ff9de9d4dc58b82b9fb5fb88bdec1e32bef8d4ce2ae1
washington 31457280 3ccb715230fc0c42a9d680931363aba1fe1ffe069be43fcc1bb515a905ee0f19
washington 12345 116ff1ac61c6385a065034fe487e771a3e0b6b48d10eb87ff50f13a5f08ab4c2
montreal 0 97a51ef9ca6d1da14b9a9e254e387dd33c99a59b8b19c635b39ab62d26cfa7b2
montreal 2097152 4ec45235202dfd0982985acdbc8aed350b32b9babff30a3fdafcf717923f74e4
montreal 31457280 82aaae51748c081fd6bf570bfff127464797aa8d54f4f66a7fa4af32beed16d6
montreal 12345 63c537dbd91ceab2e8c8e43f91ce49c068995655943edf249340b7fd1e1ee963
new-orleans 0 d760c0b2605be552bd55830a594c2b82b90169d6f3542da4fa683bd3e345b6e9
new-orleans 2097152 97edb792c569ec3848e5d25ea3e6c13e46c5735b07a1446aba97ccf86f192f0e
new-orleans 29360128 b52eec6b825432f1cc178e456607aec5f695d993a1b3e3199b769f7cba3e007c
new-orleans 12345 8174d5a9a4435a7a7b7e487bec1f91f9bf4d65070cf5908f71b24c2c63082555
venice 0 b183eefb5ed9ebea2bf09c499dcc70ec314956db308bb4ba4236a7170d07f266
venice 2097152 ccc5fa3a04c7398f1a8a74b1a5c88533d1fbb0e8f5f1f4ec40f5a4e496476c06
venice 27262976 e86952b30d0cc27ae3af669629346fb1b151565368810e5d5e9f95f05b59dbac
venice 12345 e8fc3d2ef0b460834ad08367e148d2f00e1b1efc5218a2fdc4cea076fdf4b82a
edinburgh 0 c77fdfd6700cd65b32e7ba21759ac8a773c6081a24616819d99c2ea552044f85
edinburgh 2097152 bda3bb8c433fc2664dd12bd98092f065568b0301ee5b1d22586f3595c90e1ec3
edinburgh 25165824 7f510772d54347cdc48bdf4b36016e2d47aad3559b6f496a1e27b83e23837d23
edinburgh 12345 a622b6f05b840df66ce694a226861346aabbebeabd05488d67d712d5b05722d1
athens 0 dbca7141254d202a678c8641f46a5970fd930f988f2df478f0397fee1f2d1eb8
athens 2097152 f527f8ee10365a043583a8f2a490706cd7478765a8c172c6a44775cdd5638e24
athens 23068672 148f58f1a5db337939081fc0f832910660f72babe04c2943d0cd29446152055a
athens 12345 1176ad320559474f06bec824379fe46b6f45289e311bb02dd27b0fcc6acee958
brussels 0 67536b59b23875da1cfb35588fdd8feca7967a409f6992cf94ec4486e05442d2
brussels 2097152 27e94643a4473c5262eae3cff2e700898cedd2a065d8988cb88c050e30a064fa
brussels 20971520 ca70234cbc935721bb2a9634fb69bfe3c0585d442b9bc3fdeda002b4763ccdf3
brussels 12345 1883268ad4be281395373540157e8b3ec54d0d3e234f0267748ad1bdc1c5dee2
geneva 0 2f56bdc215baee0da348acf3e6f7bdbf25e26142efb2d6d8db257f62c357e24c
geneva 2097152 39188def0f1c51b9a875d4d5bb082e5c692ea287de905c6660ac158ef32f81a8
geneva 20971520 69aceaa6527d83363fb2d2410c8e489113d0dbb48abfe42655c61d3469bde5ab
geneva 12345 29cbaaf76603f62ce9ade91a4f55776d1bb06fb44e6173f94fccde32ddc0589b
portland 0 03b19524bb183dc5e31208308646de433837bfeea28286ec19a676b018b95bc7
portland 2097152 6622d791848afb61b63180a20150b2e32e9bb3267ce24d12a01eabe4d2d0de11
portland 18874368 4421ff4680051883f9ec5656e815cf1031e0c0235f91aea1b8dd2a4be07e363e
portland 12345 0768041dfa79b2fc818763989eaa3c34093ed83d502bafc619bc3adaa338abcb
san-diego 0 da175f83e53a6c419d3d814840ecba577c37fbc22b04c7661e3e4a02049944ae
san-diego 2097152 9947fa938165bc9baa741de94897c22826e9d4e26222307563c0ad0c07ddf9d7
san-diego 16777216 19afdf20da5386ce40fa43df61d768267b79730883946d1180f13aecb2fb7f1c
san-diego 12345 bb37b8ec36125e8baf375cb9e8d02cd50f8884c48115b286423add44792526c1
hong-kong 0 558c225ab2ff93b5878547d4e8bacff67b8c4a8cc08f022c7a2f01d6fb0e0223
hong-kong 2097152 566973c31a5a6d48548fb5ab7f80f1409a0ce5bc9685eb52d96b0e12001d5ae8
hong-kong 14680064 1bc459e8b120488b430ce99de0a5894a5919431ec1008fffa685a0e081b5ca62
hong-kong 12345 d3b4afa2a8e7a54dd425a967b3b14cc0ebc3079b3507bf9673af7a5caa0b01b6
"""


def _table3_reads() -> list[tuple[str, int, int]]:
    """Every 16 KiB map sample of Table 3's 64 / 8 / 2 MB rows: the
    ``(city, start, end)`` ranges the benchmark's reference answers read."""
    reads = []
    for chunk in (64 * _MB, 8 * _MB, 2 * _MB):
        for city, size in airbnb.city_sizes().items():
            for start in range(0, size, chunk):
                length = min(size, start + chunk) - start
                reads.append((city, start, start + min(length, 16_384)))
    return reads


@pytest.fixture(scope="module")
def table3_samples() -> list[bytes]:
    content = {city: airbnb.make_review_content_fn(city) for city in airbnb.CITIES}
    return [content[city](start, end) for city, start, end in _table3_reads()]


class TestPinnedBytes:
    def test_pinned_samples(self):
        rows = [line.split() for line in _PINNED_SAMPLES.strip().splitlines()]
        assert len(rows) == 4 * len(airbnb.CITIES)
        for city, start, digest in rows:
            start = int(start)
            sample = airbnb.make_review_content_fn(city)(start, start + 16_384)
            assert hashlib.sha256(sample).hexdigest() == digest, (city, start)

    def test_table3_read_set(self, table3_samples):
        assert len(table3_samples) == 1_211
        assert hashlib.sha256(b"".join(table3_samples)).hexdigest() == (
            "35c3dc8e1767e9a245c72942a0be0f480726f98aa2950e0190855b12907dfb09"
        )

    def test_table3_read_set_answers(self, table3_samples):
        digest = hashlib.sha256()
        for sample in table3_samples:
            stats, points = tone.analyze_csv_reviews(sample)
            answer = (sorted(stats.counts.items()), stats.comments, points)
            digest.update(repr(answer).encode())
        assert digest.hexdigest() == (
            "ea966ed981130bbe07436586e1784c408538847a168fc8ed19aeeba323ab4cf3"
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), city=st.sampled_from(airbnb.CITIES))
    def test_block_equals_per_call_draws(self, data, city):
        index = data.draw(
            st.integers(0, airbnb.city_sizes()[city] // 4096 - 1), label="index"
        )
        content = airbnb.make_review_content_fn(city)
        assert content(index * 4096, (index + 1) * 4096) == _reference_block(
            city, index
        )


class TestDataPathCost:
    """Design property, no timing: Table 3's data path runs no Python frame
    per word — the fixture draws inline from ``random.Random``'s C methods
    and the analyzer sums polarity in C."""

    MAX_CALLS_PER_BLOCK = 8  # one rng.choice frame per word: ≈ 1,290
    MAX_CALLS_PER_ANALYSIS = 5  # one ToneResult per line: ≈ 30 per line

    @staticmethod
    def _python_calls(fn, *args) -> int:
        calls = 0

        def profiler(_frame, event, _arg):
            nonlocal calls
            calls += event == "call"

        gc.disable()  # gc.callbacks (hypothesis installs one) are frames too
        sys.setprofile(profiler)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
            gc.enable()
        return calls

    @pytest.mark.parametrize("start", [0, 12_345, 2 * _MB])
    def test_a_sample_costs_a_few_frames_per_block(self, start):
        content = airbnb.make_review_content_fn("paris")
        end = start + 16_384
        blocks = (end - 1) // 4096 - start // 4096 + 1
        calls = self._python_calls(content, start, end)
        assert calls <= self.MAX_CALLS_PER_BLOCK * blocks

    @pytest.mark.parametrize("size", [600, 16_384, 262_144])
    def test_analysis_frames_do_not_grow_with_lines(self, size):
        data = airbnb.make_review_content_fn("london")(0, size)
        assert data.count(b"\n") >= 1
        calls = self._python_calls(tone.analyze_csv_reviews, data)
        assert calls <= self.MAX_CALLS_PER_ANALYSIS
