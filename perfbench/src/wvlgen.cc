#include "wvlgen.hh"

#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

const char *
computeKind(Rng &rng)
{
    const int r = rng.below(20);
    if (r < 9)
        return "intalu";
    if (r < 12)
        return "intmul";
    if (r < 17)
        return "fpalu";
    return "fpmul";
}

GeneratedKernel
generateOne(std::uint64_t seed, int index, int count,
            const std::string &prefix)
{
    // The dependence structure (op kinds, wiring, recurrences, chains)
    // comes from the index alone; the seed draws the address patterns.
    // The solver's cost per node differs by orders of magnitude between
    // graph shapes, so a seeded structure would make the work of a
    // kernel set swing with the seed.
    Rng shape(0xC0FFEEull + std::uint64_t(index));
    Rng rng(seed * 0xD1B54A32D192ED03ull + std::uint64_t(index) + 1);
    GeneratedKernel k;
    k.name = prefix + std::to_string(index);

    // Stratified shape: the index fixes the size class, the
    // recurrences (count, kinds, distances) and the symbol ladder.
    const double t = count > 1 ? double(index) / double(count - 1) : 0.0;
    const int ops = 16 + int(80.0 * t + 0.5);
    const int recurrences = 1 + index % 3;
    const int numSymbols = 2 + index % 3;
    const int loads = std::max(2, ops * 22 / 100);
    const int stores = std::max(1, ops * 8 / 100);
    // Short loops keep simulation a small share of the work; 32 stays
    // divisible by every unroll factor selective unrolling picks.
    const int trip = 32;

    std::vector<std::int64_t> symbolBytes;
    for (int s = 0; s < numSymbols; ++s)
        symbolBytes.push_back(std::int64_t(1024) << ((index * 3 + s * 4) % 11));

    std::ostringstream body;
    std::vector<std::string> values;   // ops whose result can be read
    std::vector<int> loadSymbol;

    for (int l = 0; l < loads; ++l) {
        const int sym = shape.below(numSymbols);
        const int gran = rng.below(4) == 0 ? 8 : 4;
        const std::string id = "ld" + std::to_string(l);
        body << "    " << id << " = load s" << sym << " gran " << gran;
        if (rng.below(8) == 0) {
            body << " indirect range "
                 << symbolBytes[std::size_t(sym)] / gran;
        } else {
            body << " stride " << gran * (rng.below(4) == 0 ? 2 : 1);
            if (const int off = rng.below(4))
                body << " offset " << off * gran;
        }
        body << "\n";
        values.push_back(id);
        loadSymbol.push_back(sym);
    }

    // Compute ops read one or two recent values, so the body has the
    // chain-of-dependences shape of the mediabench kernels. Each
    // recurrence is a short chain closed by a loop-carried edge.
    const int computes = ops - loads - stores;
    std::vector<std::string> carried;
    int made = 0;
    auto pick = [&](int window) {
        const int n = int(values.size());
        return values[std::size_t(n - 1 - shape.below(std::min(n, window)))];
    };
    auto emitCompute = [&](const std::string &kind,
                           const std::vector<std::string> &from) {
        const std::string id = "c" + std::to_string(made++);
        body << "    " << id << " = " << kind << " from";
        for (const std::string &f : from)
            body << " " << f;
        body << "\n";
        values.push_back(id);
        return id;
    };
    const int recurrenceEvery = std::max(1, computes / (recurrences + 1));
    int recurrencesLeft = recurrences;
    while (made < computes) {
        if (recurrencesLeft > 0 && made > 0 &&
            made % recurrenceEvery == 0 && computes - made >= 3) {
            static const char *const kMid[] = {"intalu", "intmul", "fpalu",
                                               "fpmul"};
            const int r = recurrences - recurrencesLeft;
            const std::string head = emitCompute("intalu", {pick(6)});
            const std::string mid =
                emitCompute(kMid[(index + r) % 4], {head});
            const std::string tail = emitCompute("intalu", {mid});
            carried.push_back("    dep " + tail + " -> " + head +
                              " kind flow dist " +
                              std::to_string(1 + (index + r) % 2) + "\n");
            --recurrencesLeft;
            continue;
        }
        std::vector<std::string> from{pick(8)};
        if (shape.below(2))
            from.push_back(pick(8));
        if (from.size() == 2 && from[0] == from[1])
            from.pop_back();
        emitCompute(computeKind(shape), from);
    }
    // A kernel too small for a spaced recurrence still gets one.
    if (recurrencesLeft == recurrences)
        carried.push_back("    dep c0 -> c0 kind flow dist 1\n");
    for (const std::string &dep : carried)
        body << dep;

    for (int s = 0; s < stores; ++s) {
        const int sym = shape.below(numSymbols);
        const std::string id = "st" + std::to_string(s);
        body << "    " << id << " = store s" << sym
             << " gran 4 stride 4 value c"
             << computes - 1 - shape.below(std::min(computes, 6)) << "\n";
        // Order the store behind one load of the same array.
        for (int l = 0; l < loads; ++l) {
            if (loadSymbol[std::size_t(l)] == sym && shape.below(2)) {
                body << "    chain ld" << l << " " << id << "\n";
                break;
            }
        }
    }

    std::ostringstream text;
    text << "benchmark " << k.name << " {\n"
         << "  maindata size 4 share 0.8\n";
    for (int s = 0; s < numSymbols; ++s)
        text << "  symbol s" << s << " size " << symbolBytes[std::size_t(s)]
             << "\n";
    text << "  loop body trip " << trip << " invocations 1 {\n"
         << body.str() << "  }\n}\n";
    k.text = text.str();
    return k;
}

} // namespace

std::vector<GeneratedKernel>
generateKernels(std::uint64_t seed, int count, const std::string &prefix)
{
    std::vector<GeneratedKernel> out;
    out.reserve(std::size_t(count));
    for (int i = 0; i < count; ++i)
        out.push_back(generateOne(seed, i, count, prefix));
    return out;
}

std::string
fingerprint(const std::vector<GeneratedKernel> &kernels)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const GeneratedKernel &k : kernels) {
        for (unsigned char c : k.text + '\0') {
            h ^= c;
            h *= 0x100000001B3ull;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

} // namespace perfbench
